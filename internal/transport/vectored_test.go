package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/racedetect"
)

func filled(n int, b byte) []byte {
	return bytes.Repeat([]byte{b}, n)
}

func allBytes(p []byte, b byte) bool {
	for _, v := range p {
		if v != b {
			return false
		}
	}
	return true
}

// shrinkSocketBuffers makes the kernel's per-socket buffers a fraction of a
// 1 MiB frame, so such a frame can never leave in one writev. (They stay
// above loopback's 64 KiB segment size: below it TCP crawls at one delayed
// ACK per segment.)
func shrinkSocketBuffers(t *testing.T, conn net.Conn) {
	t.Helper()
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		t.Fatalf("connection is %T, want *net.TCPConn", conn)
	}
	if err := tc.SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if err := tc.SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// slowReader delivers at most 8 KiB per Read and dawdles in between.
type slowReader struct{ r io.Reader }

func (s slowReader) Read(p []byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	return s.r.Read(p[:min(len(p), 8<<10)])
}

// TestVectoredPartialWritev covers writev calls that the kernel completes
// only in part: 1 MiB frames (payload by reference) interleaved with 64 B
// ones (copied) on a single connection with small socket buffers.
func TestVectoredPartialWritev(t *testing.T) {
	const big, small = 1 << 20, 64

	// One batch, flushed into a starved socket, read by a slow reader: every
	// frame arrives intact and in order.
	t.Run("slow-reader", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		out, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		in, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		shrinkSocketBuffers(t, out)
		shrinkSocketBuffers(t, in)

		var sent transportCounters
		batch := frameBatch{enc: make([]byte, 0, batchBufSize), ctr: &sent}
		reqs := make([]Request, 12)
		for i := range reqs {
			size := small
			if i%2 == 0 {
				size = big
			}
			reqs[i] = Request{ID: uint64(i), Op: OpPutChunk, Pool: "p", Object: "o", Chunk: i, Data: filled(size, byte('a'+i))}
			batch.addRequest(&reqs[i])
		}
		flushed := make(chan error, 1)
		go func() { flushed <- batch.flush(out) }()

		var received transportCounters
		fr := newFrameReader(slowReader{in})
		for i := range reqs {
			payload, err := fr.next(DefaultMaxFrameSize)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			received.countFrameIn(len(payload) + 4)
			got, err := decodeRequest(payload, nil)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if got.ID != uint64(i) || len(got.Data) != len(reqs[i].Data) || !allBytes(got.Data, byte('a'+i)) {
				t.Fatalf("frame %d arrived out of order or damaged (id %d, %d bytes)", i, got.ID, len(got.Data))
			}
		}
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
		s, r := sent.snapshot(), received.snapshot()
		if s.FramesSent != r.FramesReceived || s.BytesSent != r.BytesReceived {
			t.Fatalf("sent %d frames / %d bytes, peer received %d / %d", s.FramesSent, s.BytesSent, r.FramesReceived, r.BytesReceived)
		}
		if want := int64(len(reqs) / 2 * big); s.BytesByReference != want {
			t.Fatalf("%d payload bytes by reference, want %d", s.BytesByReference, want)
		}
	})

	// The real client and server over one starved connection, large and
	// small frames in both directions at once: every payload is right and
	// each side's bytes and frames out equal the other side's in — the
	// vectored path counts header and payload, by reference or not.
	t.Run("client-server", func(t *testing.T) {
		cluster := testClusterWithService(t, 0)
		srv, client := startServerWithConfig(t, cluster, ServerConfig{}, ClientConfig{Conns: 1})
		cc, err := client.conn(0)
		if err != nil {
			t.Fatal(err)
		}
		shrinkSocketBuffers(t, cc.conn)
		srv.mu.Lock()
		for sc := range srv.conns {
			shrinkSocketBuffers(t, sc.conn)
		}
		srv.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		pool, err := cluster.Pool("data")
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][][]byte{}
		for object, chunk := range map[string]int{"big": big, "small": small} {
			if _, err := pool.PutV(ctx, object, patterned(pool.K*chunk, byte(chunk))); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pool.N; i++ {
				c, err := pool.GetChunk(ctx, object, i)
				if err != nil {
					t.Fatal(err)
				}
				want[object] = append(want[object], c)
			}
		}
		version, err := client.BeginPut(ctx, "data", "staged")
		if err != nil {
			t.Fatal(err)
		}
		before := client.Stats().BytesByReference

		const workers, rounds = 6, 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					object := "big"
					if (w+r)%2 == 1 {
						object = "small"
					}
					chunk := (w + r) % pool.N
					got, _, err := client.GetChunk(ctx, "data", object, chunk)
					if err != nil {
						t.Errorf("get %s/%d: %v", object, chunk, err)
						return
					}
					if !bytes.Equal(got, want[object][chunk]) {
						t.Errorf("get %s/%d: wrong bytes", object, chunk)
						return
					}
					// Stage the chunk just read back under the open put.
					if err := putChunk(ctx, client, "data", "staged", version, chunk, want["big"][chunk]); err != nil {
						t.Errorf("put chunk %d: %v", chunk, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		cs, ss := client.Stats(), srv.Stats()
		if cs.FramesSent != ss.FramesReceived || cs.BytesSent != ss.BytesReceived {
			t.Fatalf("client sent %d frames / %d bytes, server received %d / %d", cs.FramesSent, cs.BytesSent, ss.FramesReceived, ss.BytesReceived)
		}
		if ss.FramesSent != cs.FramesReceived || ss.BytesSent != cs.BytesReceived {
			t.Fatalf("server sent %d frames / %d bytes, client received %d / %d", ss.FramesSent, ss.BytesSent, cs.FramesReceived, cs.BytesReceived)
		}
		if got, want := cs.BytesByReference-before, int64(workers*rounds*big); got != want {
			t.Fatalf("client sent %d payload bytes by reference, want %d", got, want)
		}
		if want := int64(workers * rounds / 2 * big); ss.BytesByReference != want {
			t.Fatalf("server sent %d payload bytes by reference, want %d (the 64 B chunks must be copied)", ss.BytesByReference, want)
		}
		if cs.DecodeErrors+ss.DecodeErrors != 0 {
			t.Fatalf("decode errors: client %d, server %d", cs.DecodeErrors, ss.DecodeErrors)
		}
	})
}

// scriptedServer accepts connections one after another and hands each to
// serve together with its index; it stands in for a server whose behaviour
// a test needs to dictate frame by frame.
func scriptedServer(t *testing.T, serve func(i int, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer conn.Close()
				serve(i, conn)
			}(i)
		}
	}()
	return ln.Addr().String()
}

func reply(conn net.Conn, resp Response) error {
	batch := frameBatch{ctr: new(transportCounters)}
	batch.addResponse(&resp)
	return batch.flush(conn)
}

// TestVectoredRetryResendsSameBytes replays a request after an overload
// response and after a broken connection: the retry must carry the same
// payload as the first attempt, whether it was copied or sent by reference.
func TestVectoredRetryResendsSameBytes(t *testing.T) {
	for _, fault := range []string{"overload", "broken-connection"} {
		for _, size := range []int{100, 256 << 10} {
			t.Run(fmt.Sprintf("%s/%d", fault, size), func(t *testing.T) {
				var mu sync.Mutex
				var seen [][]byte
				attempts := 0
				addr := scriptedServer(t, func(_ int, conn net.Conn) {
					fr := newFrameReader(conn)
					for {
						payload, err := fr.next(DefaultMaxFrameSize)
						if err != nil {
							return
						}
						req, err := decodeRequest(payload, nil)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						seen = append(seen, req.Data)
						attempts++
						first := attempts == 1
						mu.Unlock()
						switch {
						case !first:
							err = reply(conn, Response{ID: req.ID, Code: codeOK, Version: req.Version})
						case fault == "overload":
							err = reply(conn, Response{ID: req.ID, Code: codeOverloaded, Err: ErrOverloaded.Error()})
						default:
							return // hang up without an answer
						}
						if err != nil {
							return
						}
					}
				})
				client := NewClient(addr, ClientConfig{Conns: 1, Retries: 2})
				defer client.Close()
				data := patterned(size, 0x5a)
				want := bytes.Clone(data)
				if err := putChunk(context.Background(), client, "p", "o", 7, 3, data); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(seen) != 2 || client.Stats().Retries != 1 {
					t.Fatalf("server saw %d attempts, client counted %d retries; want 2 and 1", len(seen), client.Stats().Retries)
				}
				for i, got := range seen {
					if !bytes.Equal(got, want) {
						t.Fatalf("attempt %d carried different bytes", i+1)
					}
				}
			})
		}
	}
}

// TestCancelledRoundTripKeepsPayload is the regression test for a cancelled
// round trip whose payload is read after its caller has the buffer back. The
// server stalls its reads, so one PutChunk blocks mid-write, holding the
// connection's send side, and the others wait for it; all are cancelled and
// every caller overwrites its buffer the moment its call returns. The waiting
// calls return at once and their frames never reach the wire; the one being
// written returns when its write does, and when the server reads again the
// one frame that arrives carries the bytes its caller sent.
func TestCancelledRoundTripKeepsPayload(t *testing.T) {
	const calls, size = 6, 1 << 20
	const scribble = 0xFF
	resume := make(chan struct{})
	arrived := make(chan []int, 1)
	addr := scriptedServer(t, func(_ int, conn net.Conn) {
		shrinkSocketBuffers(t, conn)
		<-resume
		var chunks []int
		fr := newFrameReader(conn)
		for {
			payload, err := fr.next(DefaultMaxFrameSize)
			if err != nil {
				break // the client hung up
			}
			req, err := decodeRequest(payload, nil)
			if err != nil {
				t.Error(err)
				break
			}
			if len(req.Data) != size || !allBytes(req.Data, byte('A'+req.Chunk)) {
				t.Errorf("chunk %d arrived carrying bytes its caller wrote after PutChunk returned", req.Chunk)
			}
			chunks = append(chunks, req.Chunk)
		}
		arrived <- chunks
	})
	client := NewClient(addr, ClientConfig{Conns: 1, Retries: -1})
	defer client.Close()
	cc, err := client.conn(0)
	if err != nil {
		t.Fatal(err)
	}
	shrinkSocketBuffers(t, cc.conn)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var returned atomic.Int64
	put := func(i int) {
		defer wg.Done()
		buf := filled(size, byte('A'+i))
		err := putChunk(ctx, client, "p", "o", 1, i, buf)
		// The buffer is the caller's again: reuse it at once.
		for j := range buf {
			buf[j] = scribble
		}
		returned.Add(1)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("PutChunk %d: %v, want context.Canceled", i, err)
		}
	}
	// The first call fills the socket and blocks mid-frame. Its frame is
	// counted once it has the send side, which it then keeps until the server
	// reads again: whenever the others arrive, they find it taken.
	wg.Add(1)
	go put(0)
	if !waitFor(5*time.Second, func() bool { return client.Stats().FramesSent == 1 }) {
		t.Fatal("first request never took the send side")
	}
	for i := 1; i < calls; i++ {
		wg.Add(1)
		go put(i)
	}
	cancel()
	// With the server still stalled, every call but the one writing returns.
	if !waitFor(5*time.Second, func() bool { return returned.Load() == calls-1 }) {
		t.Fatalf("%d of %d waiting calls returned after cancellation", returned.Load(), calls-1)
	}
	if sent := client.Stats().FramesSent; sent != 1 {
		t.Fatalf("%d frames encoded while the server was stalled, want 1", sent)
	}
	close(resume)
	wg.Wait()
	// Hang up so the server sees the end.
	_ = client.Close()
	if chunks := <-arrived; len(chunks) != 1 || chunks[0] != 0 {
		t.Fatalf("frames of chunks %v arrived, want only chunk 0's: a call cancelled while it waited must never reach the wire", chunks)
	}
	if sent := client.Stats().FramesSent; sent != 1 {
		t.Fatalf("%d frames sent in all, want 1", sent)
	}
}

// retainingPeer keeps the slice PeerWrite is handed, as a shard that stores
// or forwards the payload by reference would.
type retainingPeer struct {
	fakePeer
	kept atomic.Pointer[[]byte]
}

func (p *retainingPeer) PeerWrite(_ context.Context, _ int, data []byte) (uint64, error) {
	p.kept.Store(&data)
	return 1, nil
}

// TestImmutableNetworkCopyBoundary shows that the network is a copy
// boundary: whatever a caller does to its buffer after PutChunk or
// CtrlWrite has returned, the bytes the server side stored — by reference
// to the frame it received — stay what was sent.
func TestImmutableNetworkCopyBoundary(t *testing.T) {
	ctx := context.Background()
	for _, chunk := range []int{100, 64 << 10} { // copied into the batch / sent by reference
		t.Run(fmt.Sprintf("chunk-%d", chunk), func(t *testing.T) {
			_, client, cluster := startServer(t)
			pool, err := cluster.Pool("data")
			if err != nil {
				t.Fatal(err)
			}

			version, err := client.BeginPut(ctx, "data", "staged")
			if err != nil {
				t.Fatal(err)
			}
			wantChunks := make([][]byte, pool.N)
			for i := range wantChunks {
				buf := patterned(chunk, byte(10+i))
				wantChunks[i] = bytes.Clone(buf)
				if err := putChunk(ctx, client, "data", "staged", version, i, buf); err != nil {
					t.Fatal(err)
				}
				clear(buf)
			}
			if err := client.CommitObject(ctx, "data", "staged", version, pool.K*chunk); err != nil {
				t.Fatal(err)
			}
			for i, want := range wantChunks {
				if got, err := pool.GetChunk(ctx, "staged", i); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("after PutChunk and buffer reuse: stored chunk %d changed (err %v)", i, err)
				}
			}

			peer := &retainingPeer{}
			shard := NewServerWithConfig(nil, ServerConfig{Workers: 2, Peer: peer})
			addr, err := shard.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer shard.Close()
			cli, err := DialConfig(addr, ClientConfig{DialTimeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			payload := patterned(chunk, 77)
			want := bytes.Clone(payload)
			if _, err := cli.CtrlWrite(ctx, 0, payload); err != nil {
				t.Fatal(err)
			}
			clear(payload)
			if kept := peer.kept.Load(); kept == nil || !bytes.Equal(*kept, want) {
				t.Fatal("after CtrlWrite and buffer reuse: the payload the shard kept changed")
			}
		})
	}
}

// TestRemoteFetcherDefaultNamesAllocateNothing counts allocations on the
// fetch path. The object names come from a table, so a fetch costs two
// allocations fewer than formatting "file-%04d" per chunk (the string and
// its boxed argument) — measured against the same chunk read through the
// client with the name formatted per call, over the same live connection.
func TestRemoteFetcherDefaultNamesAllocateNothing(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts include the race detector's own")
	}
	for _, id := range []int{0, 63, 64, 1000, 0, 9999} {
		if got, want := cluster.ObjectName(id), fmt.Sprintf("file-%04d", id); got != want {
			t.Fatalf("ObjectName(%d) = %q, want %q", id, got, want)
		}
	}
	if got := cluster.ObjectName(-1); got != "file--001" {
		t.Fatalf("ObjectName(-1) = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = cluster.ObjectName(1000) }); n != 0 {
		t.Fatalf("cached ObjectName allocates %v times", n)
	}

	_, client, cluster := startServer(t)
	pool, err := cluster.Pool("data")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// An ID past 255: smaller ints are boxed without allocating.
	if _, err := pool.PutV(ctx, "file-1007", patterned(3000, 9)); err != nil {
		t.Fatal(err)
	}
	perFetch := func(fetch func() error) float64 {
		const fetches = 400
		for i := 0; i < 50; i++ {
			if err := fetch(); err != nil { // warm the pools on both sides
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < fetches; i++ {
			if err := fetch(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / fetches
	}
	id := 1007
	formatted := perFetch(func() error {
		_, _, _, err := client.GetChunkV(ctx, "data", fmt.Sprintf("file-%04d", id), 1)
		return err
	})
	f := &RemoteFetcher{Client: client, Pool: "data"}
	table := perFetch(func() error {
		_, _, err := f.FetchChunkV(ctx, id, 1, 0)
		return err
	})
	if saved := formatted - table; saved < 1.5 || saved > 2.5 {
		t.Fatalf("table names save %.2f allocations per fetch (%.2f formatted, %.2f from the table), want 2", saved, formatted, table)
	}
}
