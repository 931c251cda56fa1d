package transport

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/optimizer"
	"sprout/internal/racedetect"
)

// fetchOutcome is what one sink of a test batch received.
type fetchOutcome struct {
	data []byte
	info core.StripeInfo
	err  error
	at   time.Time
}

// testSink records its completion and fails the test on a second one.
type testSink struct {
	t     *testing.T
	calls atomic.Int32
	done  chan fetchOutcome
}

func (s *testSink) FetchDone(data []byte, info core.StripeInfo, err error) {
	if s.calls.Add(1) != 1 {
		s.t.Error("a fetch sink was completed twice")
		return
	}
	s.done <- fetchOutcome{data: data, info: info, err: err, at: time.Now()}
}

// startBatch starts one asynchronous fetch per chunk index, with no size
// hint, and returns the sinks in the same order.
func startBatch(t *testing.T, ctx context.Context, f *RemoteFetcher, fileID int, chunks ...int) []*testSink {
	return startSizedBatch(t, ctx, f, fileID, 0, chunks...)
}

// startSizedBatch is startBatch telling the fetcher to expect chunks of size
// bytes.
func startSizedBatch(t *testing.T, ctx context.Context, f *RemoteFetcher, fileID, size int, chunks ...int) []*testSink {
	sinks := make([]*testSink, len(chunks))
	refs := make([]core.FetchRef, len(chunks))
	for i, chunk := range chunks {
		sinks[i] = &testSink{t: t, done: make(chan fetchOutcome, 1)}
		refs[i] = core.FetchRef{ChunkIndex: chunk, Size: size, Sink: sinks[i]}
	}
	f.StartFetches(ctx, fileID, refs)
	clear(refs) // the fetcher may not keep the slice
	return sinks
}

// await returns every sink's outcome, failing the test if one takes longer
// than timeout.
func await(t *testing.T, sinks []*testSink, timeout time.Duration) []fetchOutcome {
	t.Helper()
	out := make([]fetchOutcome, len(sinks))
	limit := time.After(timeout)
	for i, s := range sinks {
		select {
		case out[i] = <-s.done:
		case <-limit:
			t.Fatalf("sink %d of %d was not completed within %v", i, len(sinks), timeout)
		}
	}
	return out
}

// clientGoroutines counts the goroutines running client code: connection
// loops, the sweep, fallback round trips. It reads each goroutine's frames,
// not the "created by" trailer, and skips the go statement's wrapper
// (gowrap): a goroutine counts when a client function is blocked or calls
// another function. One that has called its deferred WaitGroup.Done has
// finished — Close may return on that very call, before the goroutine
// exits — so it is not counted, neither inside Done nor runnable in its
// client function's epilogue, with nothing above it.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*WaitGroup).Done") {
			continue
		}
		header, frames, _ := strings.Cut(g, "\n")
		frames, _, _ = strings.Cut(frames, "created by ")
		parked := !strings.Contains(header, "[running") && !strings.Contains(header, "[runnable")
		depth := 0
		for _, fn := range strings.Split(frames, "\n") {
			if fn == "" || strings.HasPrefix(fn, "\t") {
				continue // a frame's file line
			}
			client := (strings.Contains(fn, "transport.(*Client).") || strings.Contains(fn, "transport.(*clientConn).")) &&
				!strings.Contains(fn, ".gowrap")
			if client && (parked || depth > 0) {
				n++
				break
			}
			depth++
		}
	}
	return n
}

// recordingConn counts the Write calls that reach the connection and keeps
// their bytes.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) recorded() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// answering serves a scripted connection: every request is handed to answer,
// whose response (if any) is written back with the request's ID.
func answering(t *testing.T, conn net.Conn, answer func(req Request) (Response, bool)) {
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
		resp, ok := answer(req)
		if !ok {
			continue
		}
		resp.ID = req.ID
		if err := reply(conn, resp); err != nil {
			return
		}
	}
}

// TestStartFetchesOneWrite: the k requests of a batch reach the connection
// in one Write whose bytes are the k frames the reference encoder produces,
// and the client counts them as it counts k blocking round trips.
func TestStartFetchesOneWrite(t *testing.T) {
	chunks := []int{4, 0, 6, 2}
	serve := func(_ int, conn net.Conn) {
		answering(t, conn, func(req Request) (Response, bool) {
			return Response{Version: 9, Size: 4000, Data: filled(1000, byte(req.Chunk))}, true
		})
	}
	deadline := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	client := NewClient(scriptedServer(t, serve), ClientConfig{Conns: 1, Tenant: "gold"})
	defer client.Close()
	raw, err := net.Dial("tcp", client.addr)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingConn{Conn: raw}
	if _, err := client.adopt(0, rec); err != nil {
		t.Fatal(err)
	}
	f := &RemoteFetcher{Client: client, Pool: "ec"}
	for i, got := range await(t, startBatch(t, ctx, f, 7, chunks...), 5*time.Second) {
		want := fetchOutcome{data: filled(1000, byte(chunks[i])), info: core.StripeInfo{Version: 9, Size: 4000}}
		if got.err != nil || got.info != want.info || !bytes.Equal(got.data, want.data) {
			t.Fatalf("chunk %d: got %d bytes, %+v, %v", chunks[i], len(got.data), got.info, got.err)
		}
	}

	var want []byte
	for i, chunk := range chunks {
		want = appendRequest(want, &Request{ID: uint64(i + 1), Op: OpGetChunk, Chunk: chunk,
			Deadline: uint64(deadline.UnixNano()), Pool: "ec", Object: "file-0007", Tenant: "gold"})
	}
	writes := rec.recorded()
	if len(writes) != 1 {
		t.Fatalf("%d requests left in %d writes, want 1", len(chunks), len(writes))
	}
	if !bytes.Equal(writes[0], want) {
		t.Fatalf("the batch's bytes differ from %d reference frames:\n got %x\nwant %x", len(chunks), writes[0], want)
	}

	// The same fetches as blocking round trips, over a client of their own.
	blocking := NewClient(scriptedServer(t, serve), ClientConfig{Conns: 1, Tenant: "gold"})
	defer blocking.Close()
	bf := &RemoteFetcher{Client: blocking, Pool: "ec"}
	for _, chunk := range chunks {
		if _, _, err := bf.FetchChunkV(ctx, 7, chunk, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, ref := client.Stats(), blocking.Stats()
	if got.Requests != ref.Requests || got.FramesSent != ref.FramesSent || got.BytesSent != ref.BytesSent ||
		got.FramesReceived != ref.FramesReceived || got.BytesReceived != ref.BytesReceived {
		t.Fatalf("asynchronous batch counted %+v, %d blocking round trips %+v", got, len(chunks), ref)
	}
	if got.Requests != int64(len(chunks)) || got.FramesSent != int64(len(chunks)) || got.BytesSent != int64(len(want)) {
		t.Fatalf("stats %+v, want %d requests and frames, %d bytes out", got, len(chunks), len(want))
	}
	if got.FetchBatches != 1 || got.AsyncFallbacks != 0 || ref.FetchBatches != 0 {
		t.Fatalf("FetchBatches/AsyncFallbacks = %d/%d (blocking client %d batches), want 1/0 (0)", got.FetchBatches, got.AsyncFallbacks, ref.FetchBatches)
	}
}

// TestStartFetchesSpreadsLargeChunks: a batch whose refs expect chunks of
// spreadMin bytes is divided over the pooled connections — still one write
// each, from the first batch on — while smaller chunks, and chunks of unknown
// size whatever they turn out to weigh, share one connection and one write.
func TestStartFetchesSpreadsLargeChunks(t *testing.T) {
	for _, tc := range []struct {
		name      string
		hint      int
		chunkSize int
		perConn   []int // the batch's requests, by connection, sorted
	}{
		{"small chunks share a connection", spreadMin - 1, spreadMin - 1, []int{0, 4}},
		{"large chunks are spread", spreadMin, spreadMin, []int{2, 2}},
		{"no hint means one write", 0, spreadMin, []int{0, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			perConn := map[int]int{}
			addr := scriptedServer(t, func(i int, conn net.Conn) {
				answering(t, conn, func(req Request) (Response, bool) {
					mu.Lock()
					perConn[i]++
					mu.Unlock()
					return Response{Version: 1, Size: int64(4 * tc.chunkSize), Data: filled(tc.chunkSize, byte(req.Chunk))}, true
				})
			})
			client := NewClient(addr, ClientConfig{Conns: 2})
			defer client.Close()
			for slot := range client.slots {
				if _, err := client.conn(slot); err != nil {
					t.Fatal(err)
				}
			}
			f := &RemoteFetcher{Client: client, Pool: "ec"}
			sinks := startSizedBatch(t, context.Background(), f, 1, tc.hint, 0, 1, 2, 3)
			for i, got := range await(t, sinks, 5*time.Second) {
				if got.err != nil || !allBytes(got.data, byte(i)) || len(got.data) != tc.chunkSize {
					t.Fatalf("chunk %d: %d bytes, %v", i, len(got.data), got.err)
				}
			}
			mu.Lock()
			got := []int{perConn[0], perConn[1]}
			mu.Unlock()
			slices.Sort(got)
			if !slices.Equal(got, tc.perConn) {
				t.Fatalf("the batch's requests went %v over the two connections, want %v", got, tc.perConn)
			}
			if st := client.Stats(); st.FramesSent != 4 || st.AsyncFallbacks != 0 || st.FetchBatches != 1 {
				t.Fatalf("stats %+v, want 4 frames, 1 batch and no fallback", st)
			}
		})
	}
}

// TestAsyncFetchDeadline: against a server that accepts and never answers,
// every sink receives context.DeadlineExceeded no earlier than the deadline
// and no later than one sweep (plus scheduling slack) after it, the deadline
// that travelled in the frames is the context's, and a pending fetch is a
// table entry — no channel, context or timer is allocated for it.
func TestAsyncFetchDeadline(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		const slack = 250 * time.Millisecond // scheduling on a loaded CI box
		seen := make(chan Request, 8)
		addr := scriptedServer(t, func(_ int, conn net.Conn) {
			answering(t, conn, func(req Request) (Response, bool) {
				seen <- req
				return Response{}, false
			})
		})
		client, err := DialConfig(addr, ClientConfig{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		deadline := time.Now().Add(80 * time.Millisecond)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		f := &RemoteFetcher{Client: client, Pool: "ec"}
		for i, got := range await(t, startBatch(t, ctx, f, 3, 0, 1, 2, 3), 5*time.Second) {
			if !errors.Is(got.err, context.DeadlineExceeded) || !strings.Contains(got.err.Error(), "fetch chunk") {
				t.Fatalf("sink %d: %v, want a fetch error wrapping context.DeadlineExceeded", i, got.err)
			}
			if late := got.at.Sub(deadline); late < 0 || late > sweepInterval+slack {
				t.Fatalf("sink %d completed %v after the deadline, want within [0, %v]", i, late, sweepInterval+slack)
			}
		}
		for i := 0; i < 4; i++ {
			if req := <-seen; req.Deadline != uint64(deadline.UnixNano()) {
				t.Fatalf("frame of chunk %d carried deadline %d, want the context's %d", req.Chunk, req.Deadline, deadline.UnixNano())
			}
		}
		// Nothing was retried, nothing fell back: the deadline does not come back.
		if st := client.Stats(); st.Retries != 0 || st.AsyncFallbacks != 0 {
			t.Fatalf("stats %+v, want no retries and no fallbacks", st)
		}
	})

	t.Run("allocations", func(t *testing.T) {
		if racedetect.Enabled {
			t.Skip("allocation counts include the race detector's own")
		}
		addr := scriptedServer(t, func(_ int, conn net.Conn) {
			_, _ = io.Copy(io.Discard, conn) // reads without allocating per frame
		})
		client, err := DialConfig(addr, ClientConfig{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		f := &RemoteFetcher{Client: client, Pool: "ec"}
		var completed atomic.Int64
		sink := sinkFunc(func([]byte, core.StripeInfo, error) { completed.Add(1) })
		refs := []core.FetchRef{{ChunkIndex: 0, Sink: sink}, {ChunkIndex: 1, Sink: sink}, {ChunkIndex: 2, Sink: sink}, {ChunkIndex: 3, Sink: sink}}
		ctx := context.Background()
		const batches = 200
		// The pending table grows as the unanswered fetches pile up; its
		// amortised growth is below one allocation per batch.
		if n := testing.AllocsPerRun(batches, func() { f.StartFetches(ctx, 3, refs) }); n != 0 {
			t.Fatalf("a batch of %d fetches allocates %v times, want 0", len(refs), n)
		}
		if st := client.Stats(); st.AsyncFallbacks != 0 {
			t.Fatalf("%d fetches fell back to the blocking path; the count above is not the asynchronous path's", st.AsyncFallbacks)
		}
		// Close completes what is still pending, exactly once each.
		_ = client.Close()
		if got, want := completed.Load(), int64((batches+1)*len(refs)); got != want {
			t.Fatalf("%d sinks completed after Close, want %d", got, want)
		}
	})
}

type sinkFunc func(data []byte, info core.StripeInfo, err error)

func (f sinkFunc) FetchDone(data []byte, info core.StripeInfo, err error) { f(data, info, err) }

// TestAsyncFetchRetriesUnderBudget: whatever a blocking round trip retries —
// an overload response, a connection that hung up, a redial that is refused
// — an asynchronous fetch retries the same way, on the same budget (the
// replay goes over the connection the retry loop dials next), and the
// client's counters cannot tell the two apart.
func TestAsyncFetchRetriesUnderBudget(t *testing.T) {
	chunks := []int{0, 1, 2}
	type outcome struct {
		errs  []error
		stats TransportStats
	}
	type scenario struct {
		name string
		// serve scripts connection i of the scenario's server.
		serve func(t *testing.T, stopListening func()) func(i int, conn net.Conn)
		// drained starts the scenario with the retry budget empty.
		drained bool
		check   func(t *testing.T, o outcome)
	}
	ok := Response{Version: 1, Size: 3000, Data: filled(1000, 1)}
	allSucceed := func(t *testing.T, o outcome) {
		for i, err := range o.errs {
			if err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
		}
	}
	scenarios := []scenario{
		{name: "overload response",
			serve: func(t *testing.T, _ func()) func(int, net.Conn) {
				var mu sync.Mutex
				seen := map[int]bool{} // chunk -> already shed once
				return func(_ int, conn net.Conn) {
					answering(t, conn, func(req Request) (Response, bool) {
						mu.Lock()
						first := !seen[req.Chunk]
						seen[req.Chunk] = true
						mu.Unlock()
						if first {
							return Response{Code: codeOverloaded, Err: ErrOverloaded.Error()}, true
						}
						return ok, true
					})
				}
			},
			check: func(t *testing.T, o outcome) {
				allSucceed(t, o)
				if o.stats.OverloadRejections != 3 || o.stats.Retries != 3 || o.stats.RetriesDenied != 0 {
					t.Fatalf("stats %+v, want 3 overload rejections absorbed by 3 retries", o.stats)
				}
			}},
		{name: "overload response, budget empty", drained: true,
			serve: func(t *testing.T, _ func()) func(int, net.Conn) {
				return func(_ int, conn net.Conn) {
					answering(t, conn, func(Request) (Response, bool) {
						return Response{Code: codeOverloaded, Err: ErrOverloaded.Error()}, true
					})
				}
			},
			check: func(t *testing.T, o outcome) {
				for i, err := range o.errs {
					if !errors.Is(err, ErrOverloaded) {
						t.Fatalf("fetch %d: %v, want the overload error the denied retry leaves", i, err)
					}
				}
				if o.stats.OverloadRejections != 3 || o.stats.Retries != 0 || o.stats.RetriesDenied != 3 {
					t.Fatalf("stats %+v, want 3 overload rejections and 3 denied retries", o.stats)
				}
			}},
		{name: "hung-up connection",
			serve: func(t *testing.T, _ func()) func(int, net.Conn) {
				return func(i int, conn net.Conn) {
					if i == 0 {
						// Hang up on the first connection once all its requests are in.
						fr := newFrameReader(conn)
						for range chunks {
							if _, err := fr.next(DefaultMaxFrameSize); err != nil {
								return
							}
						}
						return
					}
					answering(t, conn, func(Request) (Response, bool) { return ok, true })
				}
			},
			check: func(t *testing.T, o outcome) {
				allSucceed(t, o)
				if o.stats.Retries != 3 || o.stats.RetriesDenied != 0 || o.stats.ConnsOpened != 2 {
					t.Fatalf("stats %+v, want each fetch replayed once over a redialled connection", o.stats)
				}
			}},
		{name: "connection refused on redial",
			serve: func(t *testing.T, stopListening func()) func(int, net.Conn) {
				return func(_ int, conn net.Conn) {
					fr := newFrameReader(conn)
					for range chunks {
						if _, err := fr.next(DefaultMaxFrameSize); err != nil {
							return
						}
					}
					stopListening() // then hang up: every replay's dial is refused
				}
			},
			check: func(t *testing.T, o outcome) {
				for i, err := range o.errs {
					if err == nil || !strings.Contains(err.Error(), "request failed after retries") || !strings.Contains(err.Error(), "dial") {
						t.Fatalf("fetch %d: %v, want the dial failure after retries", i, err)
					}
				}
				if o.stats.Retries != 6 || o.stats.RetriesDenied != 0 || o.stats.ConnsOpened != 1 {
					t.Fatalf("stats %+v, want both replays of each of the 3 fetches spent on refused dials", o.stats)
				}
			}},
	}

	// run plays a scenario with the fetches issued by fetch and returns what
	// they got and what the client counted.
	run := func(t *testing.T, sc scenario, fetch func(f *RemoteFetcher) []error) outcome {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		defer wg.Wait()
		defer ln.Close()
		serve := sc.serve(t, func() { _ = ln.Close() })
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
		// Only the drained scenario keeps the client's budget, emptied
		// before the first fetch; the others must never see a retry denied.
		client, err := DialConfig(ln.Addr().String(), ClientConfig{Conns: 1, Retries: 2, NoRetryBudget: !sc.drained})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if budget := client.RetryBudget(); sc.drained {
			for budget.Withdraw() {
			}
		}
		errs := fetch(&RemoteFetcher{Client: client, Pool: "ec"})
		return outcome{errs: errs, stats: client.Stats()}
	}
	ctx := context.Background()
	async := func(t *testing.T) func(f *RemoteFetcher) []error {
		return func(f *RemoteFetcher) []error {
			var errs []error
			for _, got := range await(t, startBatch(t, ctx, f, 5, chunks...), 10*time.Second) {
				errs = append(errs, got.err)
			}
			return errs
		}
	}
	blocking := func(f *RemoteFetcher) []error {
		// Concurrently, as the batch's frames are.
		errs := make([]error, len(chunks))
		var wg sync.WaitGroup
		for i, chunk := range chunks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, errs[i] = f.FetchChunkV(ctx, 5, chunk, 0)
			}()
		}
		wg.Wait()
		return errs
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := run(t, sc, async(t))
			sc.check(t, got)
			if want := int64(len(chunks)); got.stats.FetchBatches != 1 || got.stats.AsyncFallbacks != want {
				t.Fatalf("FetchBatches/AsyncFallbacks = %d/%d, want 1/%d", got.stats.FetchBatches, got.stats.AsyncFallbacks, want)
			}
			ref := run(t, sc, blocking)
			sc.check(t, ref)
			if got.stats.Requests != ref.stats.Requests || got.stats.Retries != ref.stats.Retries ||
				got.stats.RetriesDenied != ref.stats.RetriesDenied || got.stats.OverloadRejections != ref.stats.OverloadRejections {
				t.Fatalf("asynchronous fetches counted %+v, blocking round trips %+v", got.stats, ref.stats)
			}
		})
	}
}

// TestAsyncFetchStalledPeer: a peer that stops reading fills the socket
// buffers, and a batch's direct write blocks. The read that issued it is held
// no longer than its deadline plus one sweep, every fetch ends with an error
// by then, and Close leaves no goroutine behind.
func TestAsyncFetchStalledPeer(t *testing.T) {
	const timeout, slack = 100 * time.Millisecond, 400 * time.Millisecond
	release := make(chan struct{})
	// Deferred, so a failing check still lets the scripted server's cleanup,
	// which waits for this handler, finish.
	defer close(release)
	addr := scriptedServer(t, func(_ int, conn net.Conn) {
		shrinkSocketBuffers(t, conn)
		<-release // accepts, never reads
	})
	before := clientGoroutines()
	client, err := DialConfig(addr, ClientConfig{Conns: 1, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	shrinkSocketBuffers(t, client.slots[0].cc.Load().conn)
	// Frames of ~60 KiB, carried by the pool name: a few batches fill what
	// the two sockets buffer.
	f := &RemoteFetcher{Client: client, Pool: strings.Repeat("p", 60<<10)}

	var sinks []*testSink
	blocked := false
	for i := 0; i < 40 && !blocked; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		start := time.Now()
		sinks = append(sinks, startBatch(t, ctx, f, 0, 0, 1, 2, 3)...)
		held := time.Since(start)
		cancel()
		if held > timeout+sweepInterval+slack {
			t.Fatalf("StartFetches held its caller for %v against a stalled peer, want at most the %v deadline plus a sweep", held, timeout)
		}
		blocked = held >= timeout/2
	}
	if !blocked {
		t.Fatal("no write ever blocked: the scenario shows nothing")
	}
	for i, got := range await(t, sinks, timeout+sweepInterval+5*time.Second) {
		if got.err == nil {
			t.Fatalf("fetch %d succeeded against a peer that never answers", i)
		}
	}
	_ = client.Close()
	if n := clientGoroutines(); n > before {
		t.Fatalf("%d client goroutines left after Close, %d before the client existed", n, before)
	}
}

// TestBlockingWriteStalledPeer: a blocking round trip writes its own frame,
// and a peer that stopped reading blocks that write. The sweep fails the
// connection once the call's deadline has passed, so the call returns an error
// within the deadline plus two sweeps, nothing reads its payload afterwards,
// and the next call goes over a fresh connection.
func TestBlockingWriteStalledPeer(t *testing.T) {
	const timeout, slack = 100 * time.Millisecond, 400 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	addr := scriptedServer(t, func(i int, conn net.Conn) {
		if i == 0 {
			shrinkSocketBuffers(t, conn)
			<-release // accepts, never reads
			return
		}
		answering(t, conn, func(Request) (Response, bool) { return Response{}, true })
	})
	client, err := DialConfig(addr, ClientConfig{Conns: 1, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	shrinkSocketBuffers(t, client.slots[0].cc.Load().conn)

	buf := filled(4<<20, 'A')
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	returned := make(chan error, 1)
	go func() {
		err := putChunk(ctx, client, "p", "o", 1, 0, buf)
		// The buffer is the caller's again: reuse it at once.
		for j := range buf {
			buf[j] = 0xFF
		}
		returned <- err
	}()
	select {
	case err := <-returned:
		if err == nil {
			t.Fatal("PutChunk succeeded against a peer that never reads")
		}
		if held := time.Since(start); held < timeout/2 {
			t.Fatalf("PutChunk failed after %v (%v): its write never blocked, the scenario shows nothing", held, err)
		}
	case <-time.After(timeout + 2*sweepInterval + slack):
		t.Fatalf("PutChunk still blocked %v after its %v deadline, want an error within two sweeps of it", time.Since(start)-timeout, timeout)
	}
	if err := putChunk(context.Background(), client, "p", "o", 1, 1, filled(1000, 'B')); err != nil {
		t.Fatalf("PutChunk after the stalled connection was failed: %v", err)
	}
	if st := client.Stats(); st.ConnsOpened != 2 {
		t.Fatalf("stats %+v, want the second call on a second connection", st)
	}
}

// TestClientCloseWaitsForGoroutines: when Close returns, every goroutine the
// client started has exited — the read loop of every connection it ever
// dialed, the sweep, fallbacks — and a second Close is harmless.
func TestClientCloseWaitsForGoroutines(t *testing.T) {
	cluster := testClusterWithService(t, 0.0001)
	srv := NewServerWithConfig(cluster, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for round := 0; round < 5; round++ {
		before := clientGoroutines()
		client, err := DialConfig(addr, ClientConfig{Conns: 2})
		if err != nil {
			t.Fatal(err)
		}
		seed(t, cluster, "file-0000", make([]byte, 3000))
		f := &RemoteFetcher{Client: client, Pool: "data"}
		fetchAll := func() {
			if _, _, err := f.FetchChunkV(ctx, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			for i, got := range await(t, startBatch(t, ctx, f, 0, 0, 1, 2), 5*time.Second) {
				if got.err != nil {
					t.Fatalf("async fetch %d: %v", i, got.err)
				}
			}
		}
		fetchAll()
		fetchAll() // both pooled connections are up now
		breakConns(client)
		fetchAll() // over redialled connections
		fetchAll()
		if client.Stats().ConnsOpened < 3 {
			t.Fatalf("stats %+v: no connection was redialled", client.Stats())
		}
		// Leave fetches in flight across Close: their sinks complete, with the
		// response or net.ErrClosed.
		inFlight := startBatch(t, ctx, f, 0, 0, 1, 2)
		_ = client.Close()
		if n := clientGoroutines(); n > before {
			t.Fatalf("round %d: %d client goroutines still running when Close returned, %d before the client existed", round, n, before)
		}
		for i, got := range await(t, inFlight, time.Second) {
			if got.err != nil && !errors.Is(got.err, net.ErrClosed) {
				t.Fatalf("fetch %d in flight across Close: %v", i, got.err)
			}
		}
		_ = client.Close()
		// A closed client completes new fetches with net.ErrClosed at once.
		for i, got := range await(t, startBatch(t, ctx, f, 0, 0, 1), time.Second) {
			if !errors.Is(got.err, net.ErrClosed) {
				t.Fatalf("fetch %d on a closed client: %v, want net.ErrClosed", i, got.err)
			}
		}
		if n := clientGoroutines(); n > before {
			t.Fatalf("round %d: a closed client started %d goroutines", round, n-before)
		}
	}
}

// TestHedgeLoserCountsUntilResponse runs a controller over the real
// transport with one OSD answering late. The read completes through its
// hedge; the loser — the fetch still waiting on the slow OSD — stays counted
// in flight on that node until its response really arrives, so the reads in
// between rank the node last and send it nothing.
func TestHedgeLoserCountsUntilResponse(t *testing.T) {
	const lag = 300 * time.Millisecond
	cluster := testClusterWithService(t, 0.0001)
	chaos := NewChaos(1)
	_, client := startServerWithConfig(t, cluster, ServerConfig{Chaos: chaos}, ClientConfig{})
	pool, err := cluster.Pool("data")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := patterned(3000, 5)
	if _, err := pool.PutV(ctx, "file-0000", payload); err != nil {
		t.Fatal(err)
	}
	view, err := pool.ClusterView([]float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewControllerWith(view, 0, optimizer.Options{},
		core.ServeOptions{HedgeDelay: 20 * time.Millisecond, HedgeExtra: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin([]float64{0.1}); err != nil {
		t.Fatal(err)
	}
	f := &RemoteFetcher{Client: client, Pool: "data"}
	read := func() {
		t.Helper()
		got, err := ctrl.Read(ctx, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("read returned wrong data")
		}
	}
	// Slow down an OSD until a read fetches from it: with every node idle and
	// equal, which k = 3 of the 5 placement nodes a read asks is a uniform
	// draw.
	slow := -1
	var started time.Time
	for try := 0; try < 100 && slow < 0; try++ {
		osd, err := pool.ChunkOSD("file-0000", try%pool.N)
		if err != nil {
			t.Fatal(err)
		}
		chaos.SetRule(osd, ChaosRule{Latency: lag})
		before := chaos.Stats().DelaysInjected
		started = time.Now()
		read()
		if chaos.Stats().DelaysInjected > before {
			slow = osd
			if took := time.Since(started); took >= lag {
				t.Fatalf("the read took %v: it waited for the slow OSD instead of its hedge", took)
			}
			break
		}
		chaos.ClearRule(osd)
	}
	if slow < 0 {
		t.Fatal("no read ever fetched from the slowed OSD")
	}
	if ctrl.Stats().HedgeWins == 0 {
		t.Fatalf("stats %+v: the read was not completed by a hedge", ctrl.Stats())
	}
	// The loser was sent no earlier than started, so it is out until at least
	// then plus the lag.
	arrives := started.Add(lag - 20*time.Millisecond)
	delayed := chaos.Stats().DelaysInjected
	for time.Now().Before(arrives) {
		if got := ctrl.NodeInFlight()[slow]; got < 1 {
			t.Fatalf("slow OSD %d shows %d fetches in flight %v before its response is due: the hedge loser was counted out early",
				slow, got, time.Until(arrives))
		}
		read()
	}
	if got := chaos.Stats().DelaysInjected; got != delayed {
		t.Fatalf("%d more fetches reached the slow OSD while the hedge loser was still in flight on it", got-delayed)
	}
	if !waitFor(5*time.Second, func() bool { return ctrl.NodeInFlight()[slow] == 0 }) {
		t.Fatalf("in-flight count of the slow OSD never returned to zero: %v", ctrl.NodeInFlight())
	}
}

// TestReceiveIntoOwnership pins the rules under which the read loop receives
// a fetch's chunk into the buffer the fetch brought (core.FetchRef.Buf): it
// writes there only while the fetch is its alone to complete, a receive that
// breaks off still completes the fetch exactly once, and a chunk the buffer
// cannot hold gets a buffer of its own.
func TestReceiveIntoOwnership(t *testing.T) {
	// startInto starts one fetch of chunk 0 into buf and returns its sink.
	startInto := func(ctx context.Context, f *RemoteFetcher, buf []byte) *testSink {
		sink := &testSink{t: t, done: make(chan fetchOutcome, 1)}
		f.StartFetches(ctx, 1, []core.FetchRef{{ChunkIndex: 0, Sink: sink, Buf: buf}})
		return sink
	}
	// stalling serves its first connection's first request with the frame's
	// header and the first byte of a 1000-byte chunk of 0x5a, then waits for
	// rest: true writes the remainder, false (or the test's end) hangs up.
	// Everything else is answered at once with the same chunk.
	chunk := filled(1000, 0x5a)
	stalling := func(t *testing.T, rest chan bool) string {
		defer t.Cleanup(func() { close(rest) })
		return scriptedServer(t, func(i int, conn net.Conn) {
			first := i == 0
			answering(t, conn, func(req Request) (Response, bool) {
				if !first {
					return Response{Data: chunk}, true
				}
				first = false
				frame := appendResponse(nil, &Response{ID: req.ID, Data: chunk})
				cut := len(frame) - len(chunk) + 1
				if _, err := conn.Write(frame[:cut]); err != nil {
					return Response{}, false
				}
				if <-rest {
					_, _ = conn.Write(frame[cut:])
				} else {
					_ = conn.Close()
				}
				return Response{}, false
			})
		})
	}

	t.Run("expired fetch never lands in its buffer", func(t *testing.T) {
		rest := make(chan bool, 1)
		client, err := DialConfig(stalling(t, rest), ClientConfig{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		f := &RemoteFetcher{Client: client, Pool: "ec"}
		buf := filled(4096, 0xab)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		got := await(t, []*testSink{startInto(ctx, f, buf)}, 5*time.Second)[0]
		if !errors.Is(got.err, context.DeadlineExceeded) {
			t.Fatalf("the stalled fetch completed with %v, want context.DeadlineExceeded", got.err)
		}
		sum := crc32.ChecksumIEEE(buf)
		// The rest of the response arrives after the fetch expired; a fetch
		// behind it, on whichever connection, completes after it was read.
		rest <- true
		next := await(t, []*testSink{startInto(context.Background(), f, nil)}, 5*time.Second)[0]
		if next.err != nil || !bytes.Equal(next.data, chunk) {
			t.Fatalf("the fetch after it: %d bytes, %v", len(next.data), next.err)
		}
		if crc32.ChecksumIEEE(buf) != sum {
			t.Fatal("a response written after its fetch expired landed in the fetch's buffer")
		}
	})

	t.Run("a receive cut midway completes once through the fallback", func(t *testing.T) {
		rest := make(chan bool, 1)
		rest <- false
		client, err := DialConfig(stalling(t, rest), ClientConfig{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		f := &RemoteFetcher{Client: client, Pool: "ec"}
		got := await(t, []*testSink{startInto(context.Background(), f, make([]byte, 4096))}, 5*time.Second)[0]
		if got.err != nil || !bytes.Equal(got.data, chunk) {
			t.Fatalf("got %d bytes, %v; want the chunk", len(got.data), got.err)
		}
		if st := client.Stats(); st.AsyncFallbacks != 1 {
			t.Fatalf("%d fallbacks, want the cut fetch's one", st.AsyncFallbacks)
		}
	})

	t.Run("a chunk longer than the buffer gets its own", func(t *testing.T) {
		addr := scriptedServer(t, func(_ int, conn net.Conn) {
			answering(t, conn, func(req Request) (Response, bool) {
				return Response{Data: filled(1000*(req.Chunk+1), byte(req.Chunk+1))}, true
			})
		})
		client, err := DialConfig(addr, ClientConfig{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		f := &RemoteFetcher{Client: client, Pool: "ec"}
		fits, short := filled(1000, 0xab), filled(1500, 0xab)
		sinks := []*testSink{{t: t, done: make(chan fetchOutcome, 1)}, {t: t, done: make(chan fetchOutcome, 1)}}
		f.StartFetches(context.Background(), 1, []core.FetchRef{
			{ChunkIndex: 0, Sink: sinks[0], Buf: fits},
			{ChunkIndex: 1, Sink: sinks[1], Buf: short},
		})
		got := await(t, sinks, 5*time.Second)
		if got[0].err != nil || !bytes.Equal(got[0].data, filled(1000, 1)) || &got[0].data[0] != &fits[0] {
			t.Fatalf("the chunk that fits: %v; want it received into its buffer", got[0].err)
		}
		if got[1].err != nil || !bytes.Equal(got[1].data, filled(2000, 2)) {
			t.Fatalf("the longer chunk: %d bytes, %v", len(got[1].data), got[1].err)
		}
		if !allBytes(short, 0xab) {
			t.Fatal("a chunk longer than its buffer was written into it")
		}
	})
}
