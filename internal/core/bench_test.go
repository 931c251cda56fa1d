package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"sprout/internal/cluster"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
)

// benchStore is a contention-free in-memory fetcher: chunk payloads are
// precomputed per file so benchmark numbers isolate the controller's own
// serving path.
type benchStore struct {
	chunks [][][]byte // fileID -> chunkIndex -> payload
}

func (s *benchStore) FetchChunk(_ context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
	file := s.chunks[fileID]
	if chunkIndex >= len(file) {
		return nil, fmt.Errorf("no chunk %d", chunkIndex)
	}
	return file[chunkIndex], nil
}

// benchAsyncStore is benchStore as an AsyncChunkFetcher that completes every
// fetch inside StartFetches: the read plane's asynchronous launch and
// completion with nothing else on the path.
type benchAsyncStore struct{ *benchStore }

func (s benchAsyncStore) StartFetches(ctx context.Context, fileID int, refs []FetchRef) {
	for _, ref := range refs {
		data, err := s.FetchChunk(ctx, fileID, ref.ChunkIndex, ref.NodeID)
		ref.Sink.FetchDone(data, StripeInfo{}, err)
	}
}

func benchController(b *testing.B, numFiles, fileSize, capacity int, serve ServeOptions) (*Controller, *benchStore) {
	b.Helper()
	nodes := make([]cluster.Node, 8)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: i, Name: fmt.Sprintf("osd-%d", i), Service: queue.NewExponential(1.0)}
	}
	rng := rand.New(rand.NewSource(17))
	files := make([]cluster.File, numFiles)
	for i := range files {
		placement, _ := cluster.RandomPlacement(rng, 8, 5)
		files[i] = cluster.File{
			ID: i, Name: fmt.Sprintf("f%d", i), SizeBytes: int64(fileSize),
			K: 3, N: 5, Placement: placement, Lambda: 0.01,
		}
	}
	clu := &cluster.Cluster{Nodes: nodes, Files: files}
	ctrl, err := NewControllerWith(clu, capacity, optimizer.Options{}, serve, 1)
	if err != nil {
		b.Fatal(err)
	}
	store := &benchStore{chunks: make([][][]byte, numFiles)}
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		rng.Read(payload)
		dataChunks, err := meta.Code.Split(payload)
		if err != nil {
			b.Fatal(err)
		}
		coded, err := meta.Code.Encode(dataChunks)
		if err != nil {
			b.Fatal(err)
		}
		store.chunks[meta.ID] = coded
	}
	lambdas := make([]float64, numFiles)
	for i := range lambdas {
		lambdas[i] = 0.01
	}
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		b.Fatal(err)
	}
	return ctrl, store
}

// BenchmarkControllerRead measures the lock-free read plane end to end
// (scheduling, cache lookup, parallel fetch fan-out, decode) over an
// instant in-memory store, across concurrent readers via RunParallel.
// Each reader reuses a payload buffer through ReadInto, so allocs/op
// isolates the serving path itself: the nocache-async and cached variants
// must stay at zero. nocache fetches through a blocking fetcher, so it
// measures the blocking adapter's goroutine per fetch; nocache-async fetches
// through an AsyncChunkFetcher, the path production reads take. The cached
// variants hold every file whole, so their reads are k copies; cached-1MiB is
// the size where that copy, not the bookkeeping, is the cost.
func BenchmarkControllerRead(b *testing.B) {
	for _, bc := range []struct {
		name                  string
		files, size, capacity int
		async                 bool
		// cancellable: the readers share one context.WithCancel parent, as
		// every real caller's context is; the others pass Background.
		cancellable bool
	}{
		{"nocache", 64, 16 << 10, 0, false, false},
		{"nocache-async", 64, 16 << 10, 0, true, false},
		{"nocache-async-cancellable", 64, 16 << 10, 0, true, true},
		{"cached", 64, 16 << 10, 256, false, false},
		{"cached-cancellable", 64, 16 << 10, 256, false, true},
		{"cached-1MiB", 8, 1 << 20, 32, false, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctrl, blocking := benchController(b, bc.files, bc.size, bc.capacity, ServeOptions{})
			defer ctrl.Close()
			var store ChunkFetcher = blocking
			if bc.async {
				store = benchAsyncStore{blocking}
			}
			if bc.capacity > 0 {
				if err := ctrl.PrefetchCache(context.Background(), store); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			if bc.cancellable {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			var seq atomic.Int64
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var buf []byte
				for pb.Next() {
					fileID := int(seq.Add(1)) % bc.files
					payload, err := ctrl.ReadInto(ctx, fileID, store, buf)
					if err != nil {
						b.Fatal(err)
					}
					buf = payload
				}
			})
		})
	}
}
