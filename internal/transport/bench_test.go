package transport

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/objstore"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
)

// benchCluster builds a zero-service-time store so the benchmarks measure
// the transport, not the emulated disks.
func benchCluster(b *testing.B, chunkSize int) *objstore.Cluster {
	b.Helper()
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      8,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: int64(chunkSize),
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := cluster.CreatePool("data", 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 3*chunkSize)
	rand.New(rand.NewSource(2)).Read(payload)
	if err := pool.Put(context.Background(), "obj", payload); err != nil {
		b.Fatal(err)
	}
	return cluster
}

// BenchmarkTransportBinaryGetChunk measures sequential 4 KiB chunk reads
// over the multiplexed binary protocol.
func BenchmarkTransportBinaryGetChunk(b *testing.B) {
	cluster := benchCluster(b, 4<<10)
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := DialConfig(addr, ClientConfig{DialTimeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.GetChunk(ctx, "data", "obj", i%5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := srv.Stats().BytesByReference + client.Stats().BytesByReference; got != 0 {
		b.Fatalf("%d payload bytes sent by reference; 4 KiB chunks must stay below the threshold", got)
	}
}

// BenchmarkTransportBinaryGetChunkParallel measures pipelined chunk reads:
// many goroutines multiplexed over a small connection pool.
func BenchmarkTransportBinaryGetChunkParallel(b *testing.B) {
	cluster := benchCluster(b, 4<<10)
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := NewClient(addr, ClientConfig{Conns: 4})
	defer client.Close()
	ctx := context.Background()
	b.SetBytes(4 << 10)
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := client.GetChunk(ctx, "data", "obj", i%5); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkTransportEncodeRequest isolates the frame encoder: one 4 KiB
// request gathered into a batch, header and payload both copied.
func BenchmarkTransportEncodeRequest(b *testing.B) {
	data := make([]byte, 4<<10)
	req := Request{ID: 1, Op: OpPutChunk, Pool: "data", Object: "object-000", Data: data}
	batch := frameBatch{enc: make([]byte, 0, 5<<10), ctr: new(transportCounters)}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i)
		batch.enc, batch.cut = batch.enc[:0], 0
		batch.addRequest(&req)
	}
	if len(batch.enc) == 0 {
		b.Fatal("no frame produced")
	}
}

// BenchmarkTransportChunk256K moves one 256 KiB chunk per operation across
// loopback against a zero-service store — the large-rw chunk size, where
// bytes dominate: get fetches a stored chunk (server sends by reference),
// put stages one (client sends by reference, the server's frame buffer
// becomes the stored chunk). Any copy added on the chunk path shows here
// first.
func BenchmarkTransportChunk256K(b *testing.B) {
	const chunkSize = 256 << 10
	cluster := benchCluster(b, chunkSize)
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := DialConfig(addr, ClientConfig{DialTimeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	b.Run("get", func(b *testing.B) {
		before := srv.Stats().BytesByReference
		b.SetBytes(chunkSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := client.GetChunk(ctx, "data", "obj", i%5); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := srv.Stats().BytesByReference - before; got != int64(b.N)*chunkSize {
			b.Fatalf("server sent %d payload bytes by reference, want %d", got, int64(b.N)*chunkSize)
		}
	})
	b.Run("put", func(b *testing.B) {
		chunk := make([]byte, chunkSize)
		rand.New(rand.NewSource(3)).Read(chunk)
		version, err := client.BeginPut(ctx, "data", "staged")
		if err != nil {
			b.Fatal(err)
		}
		before := client.Stats().BytesByReference
		b.SetBytes(chunkSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.PutChunk(ctx, "data", "staged", version, i%5, chunk); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := client.Stats().BytesByReference - before; got != int64(b.N)*chunkSize {
			b.Fatalf("client sent %d payload bytes by reference, want %d", got, int64(b.N)*chunkSize)
		}
		if err := client.AbortPut(ctx, "data", "staged", version); err != nil {
			b.Fatal(err)
		}
	})
}

// remoteReadAllocBound is what one uncached 16 KiB read over the transport
// may allocate, server side included. Measured: 1, the object's name, which
// the server decodes once per run of requests to one object and the
// benchmark's reads alternate objects. Everything else of the four chunk
// fetches allocates nothing once warm: each chunk lands in its fetch slot's
// buffer, request frames are read into the connection's scratch, responses
// are queued by value, the chunk key is built on the stack and an OSD sleeps
// on its own timer. Before that it measured 40, and the blocking fetch path
// 72. A buffer, string, channel, context or timer per fetch creeping back in
// adds four.
const remoteReadAllocBound = 4

// BenchmarkTransportRemoteRead is one reader's whole read over the network
// data plane — controller, RemoteFetcher, loopback server, a 1 µs store — of
// a 16 KiB object under a (7,4) code with nothing cached: the small-hot
// workload of the repository benchmark in miniature, where the cost is what
// it takes to issue and complete four chunk fetches. It fails when a read
// allocates more than remoteReadAllocBound.
func BenchmarkTransportRemoteRead(b *testing.B) {
	const objects, size = 16, 16 << 10
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      12,
		Services:     []queue.Dist{queue.Deterministic{Value: 1e-6}},
		RefChunkSize: size / 4,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := cluster.CreatePool("ec", 7, 4)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(payload)
	lambdas := make([]float64, objects)
	for i := range lambdas {
		lambdas[i] = 1
		if err := pool.Put(ctx, fmt.Sprintf("file-%04d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := DialConfig(addr, ClientConfig{Conns: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	view, err := pool.ClusterView(lambdas)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.NewController(view, 0, optimizer.Options{MaxOuterIter: 6}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		b.Fatal(err)
	}
	fetcher := &RemoteFetcher{Client: client, Pool: "ec"}
	var buf []byte
	read := func(i int) {
		if buf, err = ctrl.ReadInto(ctx, i%objects, fetcher, buf); err != nil {
			b.Fatal(err)
		}
	}

	// The allocation check runs over a fixed number of reads, so it holds at
	// -benchtime 1x too; it doubles as the warm-up.
	const measured = 500
	for i := 0; i < 100; i++ {
		read(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		read(i)
	}
	runtime.ReadMemStats(&after)
	if perRead := float64(after.Mallocs-before.Mallocs) / measured; perRead > remoteReadAllocBound {
		b.Fatalf("a remote read allocates %.1f times, bound %d", perRead, remoteReadAllocBound)
	}
	if st := client.Stats(); st.AsyncFallbacks != 0 {
		b.Fatalf("%d fetches took the blocking path; the benchmark is not measuring the asynchronous one", st.AsyncFallbacks)
	}

	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
}

// stripedPutByteBound is what one striped put of a 1 MiB object into a (7,4)
// pool may allocate, server side included, in bytes. The stored chunks are
// the server's frame buffers, 7 × 256 KiB = 1.75 MiB, and nothing else of
// the put is chunk-sized: Split's chunks are views of the caller's buffer
// and the parity is written into a recycled set. Measured 1.82 MiB; before
// that it was 3.57 MiB (a zeroed copy in Split and fresh zeroed parity).
const stripedPutByteBound = 2 << 20

// BenchmarkTransportStripedPut is one 1 MiB striped put over loopback into a
// (7,4) pool of zero-service OSDs: split, parity encode, seven staged chunk
// writes and the commit. It fails when a put allocates more than
// stripedPutByteBound, counted process-wide.
func BenchmarkTransportStripedPut(b *testing.B) {
	const size = 1 << 20
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      8,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: size / 4,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cluster.CreatePool("ec", 7, 4); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := DialConfig(addr, ClientConfig{Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	writer, err := NewStripedWriter(ctx, client, "ec")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(payload)
	put := func(i int) {
		if _, err := writer.Put(ctx, fmt.Sprintf("obj-%d", i%4), payload); err != nil {
			b.Fatal(err)
		}
	}

	// The allocation check runs over a fixed number of puts, so it holds at
	// -benchtime 1x too; it doubles as the warm-up.
	const measured = 20
	for i := 0; i < 4; i++ {
		put(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		put(i)
	}
	runtime.ReadMemStats(&after)
	perPut := float64(after.TotalAlloc-before.TotalAlloc) / measured
	if perPut > stripedPutByteBound {
		b.Fatalf("a striped put allocates %.2f MiB, bound %.2f MiB", perPut/(1<<20), float64(stripedPutByteBound)/(1<<20))
	}

	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(i)
	}
	b.ReportMetric(perPut/(1<<20), "MiB/put")
}
