package transport

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/objstore"
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
	client, err := Dial(addr, time.Second)
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

// BenchmarkTransportGobGetChunk measures the seed gob baseline for the same
// operation.
func BenchmarkTransportGobGetChunk(b *testing.B) {
	cluster := benchCluster(b, 4<<10)
	srv := NewGobServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := DialGob(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.GetChunk("data", "obj", i%5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportEncodeRequest isolates the frame encoder: one 4 KiB
// request gathered into a batch, header and payload both copied.
func BenchmarkTransportEncodeRequest(b *testing.B) {
	data := make([]byte, 4<<10)
	req := Request{ID: 1, Op: OpPut, Pool: "data", Object: "object-000", Data: data}
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
	client, err := Dial(addr, time.Second)
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
