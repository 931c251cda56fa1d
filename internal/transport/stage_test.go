package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
)

// flushCountingConn notes, at every Write that reaches the connection, how
// many frames the client had encoded by then. A batch is encoded whole before
// its write starts, so the Writes of one flush all see the same count — even
// when, without writev, a flush reaches the connection as one Write per
// segment — and the number of distinct counts is the number of flushes.
type flushCountingConn struct {
	net.Conn
	client *Client
	mu     sync.Mutex
	seen   []int64
	writes [][]byte
}

func (c *flushCountingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if n := c.client.Stats().FramesSent; len(c.seen) == 0 || c.seen[len(c.seen)-1] != n {
		c.seen = append(c.seen, n)
	}
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *flushCountingConn) flushes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// TestStageChunksOneWritePerConn: a put's n chunk frames leave in no more
// writes than the put has parts — one write over one connection for small
// chunks, whose bytes are the n frames the reference encoder produces, and
// one write on each pooled connection for chunks of spreadMin or more — and
// the server's answers complete the put.
func TestStageChunksOneWritePerConn(t *testing.T) {
	for _, tc := range []struct {
		name      string
		chunkSize int
		perConn   []int // chunks staged over each connection
	}{
		{"small chunks share one write", 1000, []int{7, 0}},
		{"large chunks take one write per connection", spreadMin, []int{3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			perConn := map[int]int{}
			addr := scriptedServer(t, func(i int, conn net.Conn) {
				answering(t, conn, func(req Request) (Response, bool) {
					mu.Lock()
					perConn[i]++
					mu.Unlock()
					return Response{Version: req.Version}, true
				})
			})
			client := NewClient(addr, ClientConfig{Conns: 2, Tenant: "gold"})
			defer client.Close()
			conns := make([]*flushCountingConn, 2)
			for i := range conns {
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				conns[i] = &flushCountingConn{Conn: raw, client: client}
				if _, err := client.adopt(i, conns[i]); err != nil {
					t.Fatal(err)
				}
			}
			chunks := make([][]byte, 7)
			for i := range chunks {
				chunks[i] = filled(tc.chunkSize, byte('a'+i))
			}
			deadline := time.Now().Add(time.Minute)
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			if err := client.stageChunks(ctx, "p", "o", 5, chunks); err != nil {
				t.Fatal(err)
			}

			flushes, busy := 0, []int{}
			for _, c := range conns {
				if f := c.flushes(); f > 0 {
					flushes += f
					busy = append(busy, f)
				}
			}
			parts := 0
			for _, n := range tc.perConn {
				if n > 0 {
					parts++
				}
			}
			if flushes > parts {
				t.Fatalf("7 chunks left in %d writes (per connection %v), want at most %d", flushes, busy, parts)
			}
			mu.Lock()
			got := []int{perConn[0], perConn[1]}
			mu.Unlock()
			if got[0] < got[1] {
				got[0], got[1] = got[1], got[0]
			}
			want := append([]int(nil), tc.perConn...)
			if want[0] < want[1] {
				want[0], want[1] = want[1], want[0]
			}
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("chunks per connection %v, want %v", got, want)
			}
			if st := client.Stats(); st.Requests != 7 || st.FramesSent != 7 || st.Retries != 0 || st.AsyncFallbacks != 0 {
				t.Fatalf("stats %+v, want 7 requests and frames, no retries", st)
			}
			if tc.chunkSize >= byRefMin {
				return
			}
			var wantBytes []byte
			for i, data := range chunks {
				wantBytes = appendRequest(wantBytes, &Request{ID: uint64(i + 1), Op: OpPutChunk, Chunk: i, Version: 5,
					Deadline: uint64(deadline.UnixNano()), Pool: "p", Object: "o", Tenant: "gold", Data: data})
			}
			for _, c := range conns {
				c.mu.Lock()
				writes := c.writes
				c.mu.Unlock()
				if len(writes) > 0 && (len(writes) != 1 || !bytes.Equal(writes[0], wantBytes)) {
					t.Fatalf("the put reached the connection in %d writes, or its bytes differ from 7 reference frames", len(writes))
				}
			}
		})
	}
}

// slowStripedServer serves a (7,4) pool over 10 OSDs that each take service
// to store a chunk, with the given server and client configurations.
func slowStripedServer(t *testing.T, service time.Duration, scfg ServerConfig, ccfg ClientConfig) (*Server, *objstore.Pool, *Client) {
	t.Helper()
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      10,
		Services:     []queue.Dist{queue.Deterministic{Value: service.Seconds()}},
		RefChunkSize: 1 << 10,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.CreatePool("ec", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithConfig(cluster, scfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := DialConfig(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return srv, pool, client
}

// TestStageChunksOverloadedCommitsByRetry: a server that admits one request
// at a time answers all but one of a put's chunks "overloaded" when they
// arrive together; the put replays the shed ones together, one retry and one
// backoff per replay, and commits after six, within the default retry
// budget.
func TestStageChunksOverloadedCommitsByRetry(t *testing.T) {
	_, pool, client := slowStripedServer(t, 2*time.Millisecond,
		ServerConfig{Workers: 1, MaxInFlight: 1, StagedPutTTL: time.Minute},
		ClientConfig{Conns: 1, Retries: 6})
	ctx := context.Background()
	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	if _, err := writer.Put(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.OverloadRejections == 0 || st.Retries == 0 {
		t.Fatalf("stats %+v: no chunk was answered overloaded, the test did not exercise the replay", st)
	}
	got, err := pool.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after a put whose chunks were shed: err %v", err)
	}
	if staged := pool.StagedPuts(); staged != 0 {
		t.Fatalf("%d staged puts left after the commit", staged)
	}
}

// TestStageChunksConnTornDown breaks the connection a put's chunks were sent
// over while the server is still storing them. With retries the put replays
// all seven over a new connection, one retry under the default retry budget,
// and commits; without, it aborts, leaving no staged put behind and the
// previous stripe readable.
func TestStageChunksConnTornDown(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retries int
	}{{"replayed", 2}, {"aborted", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, pool, client := slowStripedServer(t, 20*time.Millisecond, ServerConfig{StagedPutTTL: time.Minute},
				ClientConfig{Conns: 1, Retries: tc.retries})
			ctx := context.Background()
			writer, err := NewStripedWriter(ctx, client, "ec")
			if err != nil {
				t.Fatal(err)
			}
			old := filled(16<<10, 'o')
			if _, err := writer.Put(ctx, "obj", old); err != nil {
				t.Fatal(err)
			}
			before := srv.Stats().Requests
			payload := make([]byte, 16<<10)
			rand.New(rand.NewSource(12)).Read(payload)
			done := make(chan error, 1)
			go func() {
				_, err := writer.Put(ctx, "obj", payload)
				done <- err
			}()
			// BeginPut and the seven chunks have reached the server, whose
			// OSDs take 20 ms to store them: nothing is answered yet.
			if !waitFor(5*time.Second, func() bool { return srv.Stats().Requests >= before+8 }) {
				t.Fatal("the put's chunks never reached the server")
			}
			_ = client.slots[0].cc.Load().conn.Close()
			err = <-done
			switch {
			case err == nil:
				if tc.retries < 0 {
					t.Fatal("the put committed without retries over a connection torn down mid-batch")
				}
				got, gerr := pool.Get(ctx, "obj")
				if gerr != nil || !bytes.Equal(got, payload) {
					t.Fatalf("read after a replayed put: err %v", gerr)
				}
				if client.Stats().Retries == 0 {
					t.Fatal("the put committed without replaying a chunk; the tear-down missed the batch")
				}
			case tc.retries >= 0:
				t.Fatalf("put with retries over a torn-down connection: %v", err)
			case !errors.Is(err, errConnBroken):
				t.Fatalf("put failed with %v, want a broken connection", err)
			default:
				got, gerr := pool.Get(ctx, "obj")
				if gerr != nil || !bytes.Equal(got, old) {
					t.Fatalf("previous stripe after an aborted put: err %v", gerr)
				}
			}
			// The chunks still being stored when the abort ran delete
			// themselves once they land.
			if !waitFor(5*time.Second, func() bool { return pool.StagedPuts() == 0 }) {
				t.Fatalf("%d staged puts left behind", pool.StagedPuts())
			}
		})
	}
}

// TestStageChunksCancelLeavesNothing cancels a put while the server is
// still storing its chunks: the put returns without waiting for their
// responses and leaves no pending entry on any connection and no goroutine
// behind, and its abort leaves no staged put.
func TestStageChunksCancelLeavesNothing(t *testing.T) {
	srv, pool, client := slowStripedServer(t, 200*time.Millisecond,
		ServerConfig{StagedPutTTL: time.Minute}, ClientConfig{Conns: 2})
	ctx := context.Background()
	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		t.Fatal(err)
	}
	for i := range client.slots {
		if _, err := client.conn(i); err != nil {
			t.Fatal(err)
		}
	}
	goroutines := runtime.NumGoroutine()
	requests, responses := srv.Stats().Requests, client.Stats().FramesReceived
	putCtx, cancel := context.WithCancel(ctx)
	go func() {
		waitFor(5*time.Second, func() bool { return srv.Stats().Requests >= requests+8 })
		cancel()
	}()
	_, err = writer.Put(putCtx, "obj", filled(16<<10, 'x'))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled put: %v, want context.Canceled", err)
	}
	// BeginPut's and AbortPut's: the OSDs are still storing the chunks.
	if got := client.Stats().FramesReceived - responses; got != 2 {
		t.Fatalf("%d responses arrived before the cancelled put returned, want 2: it waited for its chunks", got)
	}
	for i := range client.slots {
		cc := client.slots[i].cc.Load()
		cc.mu.Lock()
		left := len(cc.pending)
		cc.mu.Unlock()
		if left != 0 {
			t.Fatalf("connection %d holds %d pending entries after the put returned", i, left)
		}
	}
	if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines }) {
		t.Fatalf("%d goroutines after the cancelled put, %d before", runtime.NumGoroutine(), goroutines)
	}
	if !waitFor(5*time.Second, func() bool { return pool.StagedPuts() == 0 }) {
		t.Fatalf("%d staged puts left behind by the cancelled put", pool.StagedPuts())
	}
}
