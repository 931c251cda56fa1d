package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
)

// testCluster builds an emulated cluster with a "data" (5,3) pool whose
// OSDs respond with the given fixed service time.
func testClusterWithService(t *testing.T, service float64) *objstore.Cluster {
	t.Helper()
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      6,
		Services:     []queue.Dist{queue.Deterministic{Value: service}},
		RefChunkSize: 1 << 10,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.CreatePool("data", 5, 3); err != nil {
		t.Fatal(err)
	}
	return cluster
}

func startServerWithConfig(t *testing.T, cluster *objstore.Cluster, scfg ServerConfig, ccfg ClientConfig) (*Server, *Client) {
	t.Helper()
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
	return srv, client
}

func startServer(t *testing.T) (*Server, *Client, *objstore.Cluster) {
	t.Helper()
	cluster := testClusterWithService(t, 0.0001)
	srv, client := startServerWithConfig(t, cluster, ServerConfig{}, ClientConfig{})
	return srv, client, cluster
}

// seed writes an object into the "data" pool in process, behind the
// server's back: the transport has no whole-object put.
func seed(t *testing.T, cluster *objstore.Cluster, object string, payload []byte) {
	t.Helper()
	pool, err := cluster.Pool("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(context.Background(), object, payload); err != nil {
		t.Fatal(err)
	}
}

// getObject reads an object of a (n, k) pool back over the wire the way
// every reader does, chunk by chunk: the k systematic chunks, joined and
// cut to the object size they report.
func getObject(ctx context.Context, client *Client, pool, object string, k int) ([]byte, error) {
	var out []byte
	size := int64(-1)
	for i := 0; i < k; i++ {
		chunk, _, sz, err := client.GetChunkV(ctx, pool, object, i)
		if err != nil {
			return nil, err
		}
		out, size = append(out, chunk...), sz
	}
	if size < 0 || size > int64(len(out)) {
		return nil, fmt.Errorf("object size %d outside the %d bytes read", size, len(out))
	}
	return out[:size], nil
}

// TestPutGetOverTCP writes an object the way every writer does — a striped
// two-phase put over the wire — and reads it back chunk by chunk.
func TestPutGetOverTCP(t *testing.T) {
	_, client, _ := startServer(t)
	ctx := context.Background()
	payload := make([]byte, 9000)
	rand.New(rand.NewSource(2)).Read(payload)
	w, err := NewStripedWriter(ctx, client, "data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put(ctx, "obj1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := getObject(ctx, client, "data", "obj1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round-trip mismatch over TCP")
	}
	if _, latency, err := client.GetChunk(ctx, "data", "obj1", 4); err != nil || latency <= 0 {
		t.Fatalf("GetChunk of a parity chunk: latency %v, err %v", latency, err)
	}
	pools, err := client.Pools(ctx)
	if err != nil || len(pools) != 1 || pools[0] != "data" {
		t.Fatalf("Pools = %v, %v", pools, err)
	}
}

func TestGetChunkOverTCP(t *testing.T) {
	_, client, cluster := startServer(t)
	ctx := context.Background()
	payload := make([]byte, 3000)
	rand.New(rand.NewSource(3)).Read(payload)
	seed(t, cluster, "obj2", payload)
	chunk, _, err := client.GetChunk(ctx, "data", "obj2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, payload[:1000]) {
		t.Fatal("chunk 0 should be the first systematic data chunk")
	}
}

func TestErrorsMapToSentinels(t *testing.T) {
	_, client, cluster := startServer(t)
	ctx := context.Background()
	if _, _, err := client.GetChunk(ctx, "nopool", "x", 0); !errors.Is(err, objstore.ErrPoolNotFound) {
		t.Fatalf("GetChunk missing pool: want ErrPoolNotFound, got %v", err)
	}
	if _, _, err := client.PoolInfo(ctx, "nopool"); !errors.Is(err, objstore.ErrPoolNotFound) {
		t.Fatalf("PoolInfo missing pool: want ErrPoolNotFound, got %v", err)
	}
	if _, _, err := client.GetChunk(ctx, "data", "obj", 99); !errors.Is(err, objstore.ErrObjectNotFound) {
		t.Fatalf("GetChunk missing object: want ErrObjectNotFound, got %v", err)
	}
	seed(t, cluster, "present", []byte("hello"))
	if _, _, err := client.GetChunk(ctx, "data", "present", 99); !errors.Is(err, objstore.ErrChunkMissing) {
		t.Fatalf("GetChunk out of range: want ErrChunkMissing, got %v", err)
	}
	// The server message must survive the wire alongside the sentinel.
	_, _, err := client.GetChunk(ctx, "data", "missing", 0)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("missing")) {
		t.Fatalf("error message lost: %v", err)
	}
	// A chunk on a down OSD surfaces ErrOSDDown across the wire.
	pool, err := cluster.Pool("data")
	if err != nil {
		t.Fatal(err)
	}
	osd, err := pool.ChunkOSD("present", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.FailOSDs(false, osd); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.GetChunk(ctx, "data", "present", 0); !errors.Is(err, objstore.ErrOSDDown) {
		t.Fatalf("GetChunk on a down OSD: want ErrOSDDown, got %v", err)
	}
	if err := cluster.RecoverOSDs(osd); err != nil {
		t.Fatal(err)
	}
	// The connection must remain usable after error responses.
	if _, _, err := client.GetChunk(ctx, "data", "present", 0); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestUnknownOp(t *testing.T) {
	_, client, _ := startServer(t)
	if _, err := client.call(context.Background(), Request{Op: Op(99)}); err == nil {
		t.Fatal("expected error for unknown op")
	}
}

// TestConcurrentPipelinedClients hammers one pooled client from many
// goroutines so requests pipeline and interleave over shared connections.
func TestConcurrentPipelinedClients(t *testing.T) {
	_, client, cluster := startServer(t)
	ctx := context.Background()
	const objects = 4
	payloads := make([][]byte, objects)
	rng := rand.New(rand.NewSource(4))
	for i := range payloads {
		payloads[i] = make([]byte, 1500+300*i)
		rng.Read(payloads[i])
		seed(t, cluster, fmt.Sprintf("obj-%d", i), payloads[i])
	}
	const goroutines = 16
	const opsPer = 25
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				obj := (g + j) % objects
				switch j % 3 {
				case 0:
					got, err := getObject(ctx, client, "data", fmt.Sprintf("obj-%d", obj), 3)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(got, payloads[obj]) {
						errCh <- fmt.Errorf("goroutine %d: object %d mismatch", g, obj)
						return
					}
				case 1:
					if _, _, err := client.GetChunk(ctx, "data", fmt.Sprintf("obj-%d", obj), j%5); err != nil {
						errCh <- err
						return
					}
				case 2:
					if _, err := client.Pools(ctx); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	stats := client.Stats()
	if stats.Requests < goroutines*opsPer {
		t.Fatalf("client requests = %d, want >= %d", stats.Requests, goroutines*opsPer)
	}
	if stats.ConnsOpened > int64(client.cfg.Conns) {
		t.Fatalf("opened %d conns for a pool of %d", stats.ConnsOpened, client.cfg.Conns)
	}
}

func TestContextCancellationMidFlight(t *testing.T) {
	cluster := testClusterWithService(t, 0.2) // 200ms per chunk read
	_, client := startServerWithConfig(t, cluster, ServerConfig{}, ClientConfig{})
	bg := context.Background()
	seed(t, cluster, "slow", make([]byte, 3000))
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, _, err := client.GetChunk(ctx, "data", "slow", 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled GetChunk did not return")
	}
	// The connection must stay healthy for later requests.
	if _, _, err := client.GetChunk(bg, "data", "slow", 1); err != nil {
		t.Fatalf("connection unusable after cancellation: %v", err)
	}
}

func TestRequestTimeout(t *testing.T) {
	cluster := testClusterWithService(t, 0.5)
	_, client := startServerWithConfig(t, cluster, ServerConfig{},
		ClientConfig{RequestTimeout: 20 * time.Millisecond})
	bg := context.Background()
	seed(t, cluster, "slow", make([]byte, 3000))
	start := time.Now()
	if _, _, err := client.GetChunk(bg, "data", "slow", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from default request timeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestOverloadRejection(t *testing.T) {
	cluster := testClusterWithService(t, 0.05)
	// Retries disabled so every overload rejection surfaces to the caller
	// instead of being absorbed by the budgeted retry loop (covered by
	// TestOverloadRetryUnderBudget).
	srv, client := startServerWithConfig(t, cluster,
		ServerConfig{Workers: 1, MaxInFlight: 1}, ClientConfig{Conns: 1, Retries: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seed(t, cluster, "hot", make([]byte, 3000))
	const goroutines = 12
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := client.GetChunk(ctx, "data", "hot", 0)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var ok, overloaded int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("unexpected error under overload: %v", err)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded under overload")
	}
	if overloaded == 0 {
		t.Fatal("expected at least one overload rejection")
	}
	if srv.Stats().OverloadRejections == 0 {
		t.Fatal("server did not count overload rejections")
	}
	if client.Stats().OverloadRejections == 0 {
		t.Fatal("client did not count observed overload rejections")
	}
	// After the burst drains, service resumes normally.
	if _, _, err := client.GetChunk(ctx, "data", "hot", 0); err != nil {
		t.Fatalf("server unusable after overload burst: %v", err)
	}
}

func TestServerCloseMidFlight(t *testing.T) {
	cluster := testClusterWithService(t, 0.2)
	srv, client := startServerWithConfig(t, cluster, ServerConfig{},
		ClientConfig{Retries: -1, RequestTimeout: 5 * time.Second})
	ctx := context.Background()
	seed(t, cluster, "obj", make([]byte, 3000))
	const goroutines = 6
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			_, _, err := client.GetChunk(ctx, "data", "obj", g%5)
			done <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("in-flight request reported success after server close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight request did not return after server close")
		}
	}
}

// TestRetryAcrossServerRestart verifies the client survives its pooled
// connections breaking: after the server restarts on the same address, the
// next calls redial and succeed.
func TestRetryAcrossServerRestart(t *testing.T) {
	cluster := testClusterWithService(t, 0.0001)
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialConfig(addr, ClientConfig{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()
	payload := make([]byte, 2000)
	rand.New(rand.NewSource(7)).Read(payload)
	seed(t, cluster, "persist", payload)
	if _, err := getObject(ctx, client, "data", "persist", 3); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(cluster)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	got, err := getObject(ctx, client, "data", "persist", 3)
	if err != nil {
		t.Fatalf("read after server restart: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after restart")
	}
}

func TestClientCloseUnblocksWaiters(t *testing.T) {
	cluster := testClusterWithService(t, 0.5)
	_, client := startServerWithConfig(t, cluster, ServerConfig{}, ClientConfig{})
	ctx := context.Background()
	seed(t, cluster, "obj", make([]byte, 3000))
	done := make(chan error, 1)
	go func() {
		_, _, err := client.GetChunk(ctx, "data", "obj", 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = client.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request succeeded after client close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not unblocked by client close")
	}
}

func TestRequestTooLargeRejectedLocally(t *testing.T) {
	cluster := testClusterWithService(t, 0.0001)
	_, client := startServerWithConfig(t, cluster, ServerConfig{},
		ClientConfig{MaxFrameSize: 1024})
	ctx := context.Background()
	version, err := client.BeginPut(ctx, "data", "obj")
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.PutChunk(ctx, "data", "obj", version, 0, make([]byte, 2048))
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("want ErrRequestTooLarge, got %v", err)
	}
	if client.Stats().Retries != 0 {
		t.Fatal("oversized request must not burn retries on healthy connections")
	}
	// The pooled connections stay healthy for well-sized requests.
	if _, err := client.PutChunk(ctx, "data", "obj", version, 0, make([]byte, 128)); err != nil {
		t.Fatalf("connection poisoned by rejected oversized request: %v", err)
	}
}

func TestOversizedResponseDegradesToError(t *testing.T) {
	cluster := testClusterWithService(t, 0.0001)
	_, client := startServerWithConfig(t, cluster,
		ServerConfig{MaxFrameSize: 8192}, ClientConfig{})
	ctx := context.Background()
	// The request is small, but the chunk it asks for (10 000 bytes of a
	// 30 000-byte object) exceeds the server's frame limit; the server must
	// answer with an in-band error instead of emitting a frame the client
	// would reject.
	seed(t, cluster, "big", make([]byte, 30000))
	seed(t, cluster, "small", []byte("x"))
	_, _, err := client.GetChunk(ctx, "data", "big", 0)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("frame limit")) {
		t.Fatalf("want in-band frame-limit error, got %v", err)
	}
	// The connection survives.
	if _, _, err := client.GetChunk(ctx, "data", "small", 0); err != nil {
		t.Fatalf("connection killed by oversized response handling: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialConfig("127.0.0.1:1", ClientConfig{DialTimeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("expected dial error for closed port")
	}
}

func TestServerStatsCount(t *testing.T) {
	srv, client, cluster := startServer(t)
	ctx := context.Background()
	seed(t, cluster, "x", make([]byte, 1000))
	if _, _, err := client.GetChunk(ctx, "data", "x", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Pools(ctx); err != nil {
		t.Fatal(err)
	}
	s := srv.Stats()
	if s.FramesReceived < 2 || s.FramesSent < 2 || s.Requests < 2 {
		t.Fatalf("server stats = %+v", s)
	}
	if s.BytesReceived == 0 || s.BytesSent == 0 {
		t.Fatalf("server byte counters empty: %+v", s)
	}
	c := client.Stats()
	if c.FramesSent < 2 || c.FramesReceived < 2 {
		t.Fatalf("client stats = %+v", c)
	}
}
