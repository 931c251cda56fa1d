package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sprout/internal/cluster"
	"sprout/internal/objstore"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
)

// poolFetcher adapts an objstore pool to the controller's versioned fetcher.
type poolFetcher struct {
	pool *objstore.Pool
	name func(int) string
}

func (f *poolFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := f.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	return data, err
}

func (f *poolFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, StripeInfo, error) {
	data, version, size, err := f.pool.GetChunkV(ctx, f.name(fileID), chunkIndex)
	if err != nil {
		return nil, StripeInfo{}, err
	}
	return data, StripeInfo{Version: version, Size: size}, nil
}

// poolWriter adapts pool.PutV to the controller's ObjectWriter.
type poolWriter struct {
	pool *objstore.Pool
	name func(int) string
}

func (w *poolWriter) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	return w.pool.PutV(ctx, w.name(fileID), data)
}

// writeTestController builds a pool-backed controller over an emulated
// cluster: objects ingested through the pool, topology exported with
// ClusterView, functional cache planned and prefetched.
func writeTestController(t *testing.T, objects, size, capacity int) (*Controller, *objstore.Pool, *poolFetcher, *poolWriter, [][]byte) {
	t.Helper()
	// Service times must be positive: ClusterView exports them as the node
	// service rates the optimizer's latency bound works with.
	oc, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      10,
		Services:     []queue.Dist{queue.Deterministic{Value: 0.0002}},
		RefChunkSize: 8 << 10,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := oc.CreatePool("ec", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	name := cluster.ObjectName
	payloads := make([][]byte, objects)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < objects; i++ {
		payloads[i] = make([]byte, size)
		rng.Read(payloads[i])
		if _, err := pool.PutV(ctx, name(i), payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	lambdas := make([]float64, objects)
	for i := range lambdas {
		lambdas[i] = 1.0
	}
	clu, err := pool.ClusterView(lambdas)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(clu, capacity, optimizer.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ctrl.Close() })
	fetcher := &poolFetcher{pool: pool, name: name}
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.PrefetchCache(ctx, fetcher); err != nil {
		t.Fatal(err)
	}
	return ctrl, pool, fetcher, &poolWriter{pool: pool, name: name}, payloads
}

// TestReadAfterPoolOverwriteNeverStale is the regression test for the latent
// staleness bug: Pool.Put of an existing object used to leave the old
// functional chunks in the controller cache, so a read could mix stale
// cached chunks with fresh storage chunks and decode garbage. With stripe
// versions threaded through the fetcher, the read plane detects the stale
// cache, drops it, and serves the new bytes.
func TestReadAfterPoolOverwriteNeverStale(t *testing.T) {
	ctrl, pool, fetcher, _, payloads := writeTestController(t, 4, 32<<10, 8)
	ctx := context.Background()

	// Warm every file's read path (and cache) once.
	for i := range payloads {
		got, err := ctrl.Read(ctx, i, fetcher)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("warm read %d: err %v", i, err)
		}
	}
	ctrl.WaitFills()

	// Overwrite file 0 directly through the pool — bypassing the controller,
	// as an external writer would — and deliver its versioned invalidation.
	newPayload := make([]byte, 32<<10)
	rand.New(rand.NewSource(9)).Read(newPayload)
	version, err := pool.PutV(ctx, "file-0000", newPayload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.InvalidateVersion(0, version, len(newPayload)); err != nil {
		t.Fatal(err)
	}

	for attempt := 0; attempt < 3; attempt++ {
		got, err := ctrl.Read(ctx, 0, fetcher)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, payloads[0]) {
			t.Fatal("read after overwrite returned the old bytes")
		}
		if !bytes.Equal(got, newPayload) {
			t.Fatal("read after overwrite returned mixed or corrupt bytes")
		}
	}
	if stats := ctrl.Stats(); stats.CacheInvalidations == 0 {
		t.Fatalf("overwrite invalidated no cached chunks: %+v", stats)
	}
}

// TestControllerWriteRefreshesCache verifies the write-through: Write stores
// through the pool, invalidates the file's old cache chunks, installs the
// optimizer's target allocation from the just-written data, and subsequent
// reads decode the new payload (with cache hits, no stale fills).
func TestControllerWriteRefreshesCache(t *testing.T) {
	ctrl, _, fetcher, writer, payloads := writeTestController(t, 4, 32<<10, 8)
	ctx := context.Background()

	target := ctrl.CacheAllocationTarget(0)
	newPayload := make([]byte, 24<<10) // size change included
	rand.New(rand.NewSource(10)).Read(newPayload)
	if err := ctrl.Write(ctx, 0, newPayload, writer); err != nil {
		t.Fatal(err)
	}
	stats := ctrl.Stats()
	if stats.Writes != 1 || stats.WriteBytes != int64(len(newPayload)) {
		t.Fatalf("write counters: %+v", stats)
	}
	if target > 0 {
		if got := ctrl.Cache().ChunksForFile(0); got != target {
			t.Fatalf("write-through installed %d cache chunks, want %d", got, target)
		}
		if stats.WriteThroughChunks != int64(target) {
			t.Fatalf("WriteThroughChunks %d, want %d", stats.WriteThroughChunks, target)
		}
	}
	if lat := ctrl.WriteLatency(); lat.Count != 1 {
		t.Fatalf("write latency histogram count %d, want 1", lat.Count)
	}
	got, err := ctrl.Read(ctx, 0, fetcher)
	if err != nil || !bytes.Equal(got, newPayload) {
		t.Fatalf("read after Write: err %v, stale %v", err, bytes.Equal(got, payloads[0]))
	}
	// Other files untouched.
	got, err = ctrl.Read(ctx, 1, fetcher)
	if err != nil || !bytes.Equal(got, payloads[1]) {
		t.Fatalf("unrelated file damaged by Write: err %v", err)
	}
}

// TestWriteThroughOwnsCachedChunks pins the write-through's ownership: Split
// hands Write views of the caller's buffer, so the cache of a fully cached
// file must hold its own copy. After Write returns the caller scribbles over
// its buffer, and a read served wholly from the cache still returns the
// written bytes.
func TestWriteThroughOwnsCachedChunks(t *testing.T) {
	ctrl, _, fetcher, writer, _ := writeTestController(t, 1, 32<<10, 4)
	ctx := context.Background()
	if target := ctrl.CacheAllocationTarget(0); target != ctrl.files[0].K {
		t.Fatalf("plan caches %d chunks of file 0, the test needs all %d", target, ctrl.files[0].K)
	}
	buf := make([]byte, 32<<10)
	rand.New(rand.NewSource(12)).Read(buf)
	want := bytes.Clone(buf)
	if err := ctrl.Write(ctx, 0, buf, writer); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = ^buf[i]
	}
	counting := &countingFetcher{VersionedChunkFetcher: fetcher}
	before := ctrl.Stats().CacheOnlyReads
	got, err := ctrl.Read(ctx, 0, counting)
	if err != nil {
		t.Fatal(err)
	}
	if counting.fetches.Load() != 0 || ctrl.Stats().CacheOnlyReads != before+1 {
		t.Fatalf("read fetched %d chunks from storage, want a cache-only read", counting.fetches.Load())
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a cache-only read after Write returned the caller's later scribbles")
	}
}

// TestInvalidateDropsCache: a versioned invalidation from an external
// writer drops the file's cached chunks, and one for an unknown file fails.
func TestInvalidateDropsCache(t *testing.T) {
	ctrl, pool, fetcher, _, _ := writeTestController(t, 3, 16<<10, 6)
	ctx := context.Background()
	if _, err := ctrl.Read(ctx, 0, fetcher); err != nil {
		t.Fatal(err)
	}
	ctrl.WaitFills()
	if ctrl.Cache().ChunksForFile(0) == 0 {
		t.Fatal("read cached nothing to invalidate")
	}
	_, version, size, err := pool.GetChunkV(ctx, "file-0000", 0)
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := ctrl.InvalidateVersion(0, version+1, size); err != nil || !applied {
		t.Fatalf("InvalidateVersion = %v, %v", applied, err)
	}
	if ctrl.Cache().ChunksForFile(0) != 0 {
		t.Fatal("cache chunks survived the invalidation")
	}
	if _, err := ctrl.InvalidateVersion(99, version+1, size); err == nil {
		t.Fatal("invalidation of an unknown file succeeded")
	}
}

// TestConcurrentWriteAndRead hammers one file with Controller.Write while
// readers decode it through the versioned fetcher: every read must return a
// complete committed payload, never a mix.
func TestConcurrentWriteAndRead(t *testing.T) {
	ctrl, _, fetcher, writer, payloads := writeTestController(t, 2, 16<<10, 4)
	ctx := context.Background()

	const size = 16 << 10
	tagged := func(tag byte) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = tag ^ byte(i*3)
		}
		return p
	}
	var mu sync.Mutex
	allowed := map[byte]bool{}
	// The initial payload is random; track it by prefix byte lookup instead.
	initial := payloads[0]

	var wg sync.WaitGroup
	var stop atomic.Bool
	errCh := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tag := byte(1); tag <= 24; tag++ {
			mu.Lock()
			allowed[tag] = true
			mu.Unlock()
			if err := ctrl.Write(ctx, 0, tagged(tag), writer); err != nil {
				errCh <- fmt.Errorf("write %d: %w", tag, err)
				return
			}
		}
		stop.Store(true)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if stop.Load() && i > 4 {
					return
				}
				got, err := ctrl.Read(ctx, 0, fetcher)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if bytes.Equal(got, initial) {
					continue
				}
				tag := got[0]
				mu.Lock()
				ok := allowed[tag]
				mu.Unlock()
				if !ok || !bytes.Equal(got, tagged(tag)) {
					errCh <- fmt.Errorf("reader %d: mixed or unknown stripe (tag %d)", r, tag)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Quiesced: the last committed payload wins.
	got, err := ctrl.Read(ctx, 0, fetcher)
	if err != nil || !bytes.Equal(got, tagged(24)) {
		t.Fatalf("final read: err %v", err)
	}
}
