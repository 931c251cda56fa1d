package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/erasure"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/resilience"
)

// fakeStore implements ChunkFetcher over in-memory encoded files and counts
// per-node fetches.
type fakeStore struct {
	mu      sync.Mutex
	data    map[int][]byte         // fileID -> original payload
	chunks  map[int]map[int][]byte // fileID -> chunkIndex -> payload
	fetches map[int]int            // nodeID -> count
	fail    map[[2]int]error       // (fileID, chunkIndex) -> error to inject
	byNode  map[[2]int]int         // (fileID, chunkIndex) -> nodeID actually asked for
}

func newFakeStore() *fakeStore {
	return &fakeStore{
		data:    make(map[int][]byte),
		chunks:  make(map[int]map[int][]byte),
		fetches: make(map[int]int),
		fail:    make(map[[2]int]error),
		byNode:  make(map[[2]int]int),
	}
}

func (s *fakeStore) addFile(t *testing.T, meta FileMeta, payload []byte) {
	t.Helper()
	dataChunks, err := meta.Code.Split(payload)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := meta.Code.Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[meta.ID] = payload
	s.chunks[meta.ID] = make(map[int][]byte)
	for i, ch := range storage {
		s.chunks[meta.ID][i] = ch
	}
}

func (s *fakeStore) FetchChunk(_ context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err, ok := s.fail[[2]int{fileID, chunkIndex}]; ok {
		return nil, err
	}
	s.fetches[nodeID]++
	s.byNode[[2]int{fileID, chunkIndex}] = nodeID
	file, ok := s.chunks[fileID]
	if !ok {
		return nil, fmt.Errorf("no such file %d", fileID)
	}
	ch, ok := file[chunkIndex]
	if !ok {
		return nil, fmt.Errorf("no such chunk %d", chunkIndex)
	}
	return ch, nil
}

// fetchCount returns how many fetches reached the node so far.
func (s *fakeStore) fetchCount(nodeID int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches[nodeID]
}

// testCluster builds a small 4-node cluster with files of the given sizes
// using a (3,2) code and moderate load.
func testCluster(numFiles int, lambda float64) *cluster.Cluster {
	nodes := make([]cluster.Node, 4)
	rates := []float64{1.0, 0.9, 0.8, 0.7}
	for i := range nodes {
		nodes[i] = cluster.Node{ID: i, Name: fmt.Sprintf("osd-%d", i), Service: queue.NewExponential(rates[i])}
	}
	rng := rand.New(rand.NewSource(11))
	files := make([]cluster.File, numFiles)
	for i := range files {
		placement, _ := cluster.RandomPlacement(rng, 4, 3)
		files[i] = cluster.File{
			ID: i, Name: fmt.Sprintf("f%d", i), SizeBytes: 300,
			K: 2, N: 3, Placement: placement, Lambda: lambda,
		}
	}
	return &cluster.Cluster{Nodes: nodes, Files: files}
}

func buildController(t *testing.T, numFiles, capacity int, lambda float64) (*Controller, *fakeStore) {
	t.Helper()
	clu := testCluster(numFiles, lambda)
	ctrl, err := NewController(clu, capacity, optimizer.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := newFakeStore()
	rng := rand.New(rand.NewSource(5))
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		rng.Read(payload)
		store.addFile(t, meta, payload)
	}
	return ctrl, store
}

func TestNewControllerValidation(t *testing.T) {
	clu := testCluster(2, 0.01)
	clu.Files[0].Placement = nil
	if _, err := NewController(clu, 4, optimizer.Options{}, 1); err == nil {
		t.Fatal("expected error for invalid cluster")
	}
}

func TestReadWithoutPlan(t *testing.T) {
	ctrl, store := buildController(t, 2, 4, 0.01)
	if _, err := ctrl.Read(context.Background(), 0, store); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("expected ErrNoPlan, got %v", err)
	}
}

func TestReadUnknownFile(t *testing.T) {
	ctrl, store := buildController(t, 2, 4, 0.01)
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Read(context.Background(), 99, store); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("expected ErrUnknownFile, got %v", err)
	}
	if _, err := ctrl.Read(context.Background(), -1, store); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("expected ErrUnknownFile, got %v", err)
	}
}

func ctrlLambdas(ctrl *Controller) []float64 {
	files := ctrl.Files()
	l := make([]float64, len(files))
	for i := range l {
		l[i] = 0.05
	}
	return l
}

func TestReadRoundTripNoCache(t *testing.T) {
	ctrl, store := buildController(t, 3, 0, 0.05)
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	for fileID := 0; fileID < 3; fileID++ {
		got, err := ctrl.Read(context.Background(), fileID, store)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, store.data[fileID]) {
			t.Fatalf("file %d round-trip mismatch", fileID)
		}
	}
	stats := ctrl.Stats()
	if stats.Reads != 3 || stats.ChunksFromDisk == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.ChunksFromCache != 0 {
		t.Fatal("no cache chunks should be used with zero capacity")
	}
}

func TestLazyFillThenCachedReads(t *testing.T) {
	// Give the cache enough room that the optimizer caches aggressively.
	ctrl, store := buildController(t, 3, 6, 0.2)
	plan, err := ctrl.PlanTimeBin([]float64{0.2, 0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() == 0 {
		t.Skip("optimizer chose not to cache in this configuration")
	}
	var fileWithCache int
	found := false
	for i, d := range plan.D {
		if d > 0 {
			fileWithCache, found = i, true
			break
		}
	}
	if !found {
		t.Skip("no file received cache allocation")
	}
	// First read triggers the background fill.
	got, err := ctrl.Read(context.Background(), fileWithCache, store)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, store.data[fileWithCache]) {
		t.Fatal("first read returned wrong data")
	}
	ctrl.WaitFills()
	if ctrl.Cache().ChunksForFile(fileWithCache) != plan.D[fileWithCache] {
		t.Fatalf("cache holds %d chunks, want %d",
			ctrl.Cache().ChunksForFile(fileWithCache), plan.D[fileWithCache])
	}
	if ctrl.Stats().LazyFills != 1 {
		t.Fatalf("lazy fills = %d, want 1", ctrl.Stats().LazyFills)
	}
	// Second read uses the cached chunks.
	before := ctrl.Stats().ChunksFromCache
	got, err = ctrl.Read(context.Background(), fileWithCache, store)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, store.data[fileWithCache]) {
		t.Fatal("second read returned wrong data")
	}
	if ctrl.Stats().ChunksFromCache <= before {
		t.Fatal("second read should consume cached chunks")
	}
}

func TestPrefetchCache(t *testing.T) {
	ctrl, store := buildController(t, 3, 6, 0.2)
	plan, err := ctrl.PlanTimeBin([]float64{0.2, 0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() == 0 {
		t.Skip("optimizer chose not to cache")
	}
	if err := ctrl.PrefetchCache(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.D {
		if ctrl.Cache().ChunksForFile(i) != d {
			t.Fatalf("file %d: cached %d, want %d", i, ctrl.Cache().ChunksForFile(i), d)
		}
	}
	// Reads after prefetch must decode correctly from cache + storage.
	for fileID := range plan.D {
		got, err := ctrl.Read(context.Background(), fileID, store)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, store.data[fileID]) {
			t.Fatalf("file %d decode mismatch after prefetch", fileID)
		}
	}
}

func TestPrefetchWithoutPlan(t *testing.T) {
	ctrl, store := buildController(t, 2, 2, 0.01)
	if err := ctrl.PrefetchCache(context.Background(), store); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("expected ErrNoPlan, got %v", err)
	}
}

// holdingStore is a fakeStore whose fetches wait until release is closed or
// their context ends, recording how many are in flight at once. A fetch of a
// chunk the store is told to fail returns its error at once, but only after
// failAfter other fetches are being held.
type holdingStore struct {
	*fakeStore
	release   chan struct{}
	arrived   chan struct{} // one send per held fetch
	failAfter int64
	inFlight  atomic.Int64
	peak      atomic.Int64
}

func newHoldingStore(store *fakeStore, capacity int) *holdingStore {
	return &holdingStore{fakeStore: store, release: make(chan struct{}), arrived: make(chan struct{}, capacity)}
}

func (s *holdingStore) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	s.mu.Lock()
	_, failing := s.fail[[2]int{fileID, chunkIndex}]
	s.mu.Unlock()
	if failing {
		for s.inFlight.Load() < s.failAfter && ctx.Err() == nil {
			runtime.Gosched()
		}
		return s.fakeStore.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	}
	n := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	s.arrived <- struct{}{}
	select {
	case <-s.release:
		return s.fakeStore.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	case <-ctx.Done():
		// A real fetch takes a moment to notice its cancellation.
		time.Sleep(5 * time.Millisecond)
		return nil, ctx.Err()
	}
}

// TestPrefetchCacheParallel: PrefetchCache works on several files at once,
// never on more files than there are storage nodes, and a file whose chunks
// all fail stops the others and is the error returned — after every fetch
// has completed.
func TestPrefetchCacheParallel(t *testing.T) {
	t.Run("bounded by the node count", func(t *testing.T) {
		ctrl, store := buildController(t, 12, 12, 0.02)
		defer ctrl.Close()
		plan, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl))
		if err != nil {
			t.Fatal(err)
		}
		nodes, k := len(ctrl.NodeInFlight()), ctrl.Files()[0].K
		if pending := len(ctrl.epoch.Load().pending); pending <= nodes {
			t.Fatalf("test premise: %d files to prefetch, want more than the %d nodes", pending, nodes)
		}
		hold := newHoldingStore(store, 12*3) // room for every chunk of every file
		release := sync.OnceFunc(func() { close(hold.release) })
		defer release() // before ctrl.Close, which waits for held fetches
		done := make(chan error, 1)
		go func() { done <- ctrl.PrefetchCache(context.Background(), hold) }()
		// Every node gets a file: nodes·k fetches are held at once, and no
		// further one starts while they are.
		timeout := time.After(5 * time.Second)
		for i := 0; i < nodes*k; i++ {
			select {
			case <-hold.arrived:
			case <-timeout:
				t.Fatalf("only %d of %d fetches in flight at once", i, nodes*k)
			}
		}
		select {
		case <-hold.arrived:
			t.Fatalf("a fetch started beyond one file per node: peak %d > %d·%d", hold.peak.Load(), nodes, k)
		case <-time.After(20 * time.Millisecond):
		}
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if peak := hold.peak.Load(); peak <= int64(k) || peak > int64(nodes*k) {
			t.Fatalf("peak in flight %d, want in (%d, %d]", peak, k, nodes*k)
		}
		for i, d := range plan.D {
			if got := ctrl.Cache().ChunksForFile(i); got != d {
				t.Fatalf("file %d: cached %d, want %d", i, got, d)
			}
		}
	})

	t.Run("first error cancels the rest", func(t *testing.T) {
		ctrl, store := buildController(t, 4, 8, 0.05)
		defer ctrl.Close()
		if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
			t.Fatal(err)
		}
		pending := ctrl.epoch.Load().pending
		if len(pending) < 2 || len(pending) > len(ctrl.NodeInFlight()) {
			t.Fatalf("test premise: %d files to prefetch, want 2..%d (all started at once)", len(pending), len(ctrl.NodeInFlight()))
		}
		bad := -1
		for fileID := range pending {
			bad = fileID
			break
		}
		meta := ctrl.Files()[bad]
		for c := 0; c < meta.N; c++ {
			store.fail[[2]int{bad, c}] = errors.New("disk on fire")
		}
		hold := newHoldingStore(store, 4*3) // room for every chunk of every file
		// The bad file fails only once every other file's k fetches are held.
		hold.failAfter = int64((len(pending) - 1) * meta.K)
		// Nothing releases the held fetches: only PrefetchCache's own
		// cancellation ends them before this deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := ctrl.PrefetchCache(ctx, hold)
		if ctx.Err() != nil {
			t.Fatal("the other files' fetches were not cancelled by the first error")
		}
		if want := fmt.Sprintf("core: prefetch file %d: ", bad); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("PrefetchCache = %v, want an error starting %q", err, want)
		}
		for node, n := range ctrl.NodeInFlight() {
			if n != 0 {
				t.Fatalf("node %d has %d fetches in flight after PrefetchCache returned", node, n)
			}
		}
		if n := hold.inFlight.Load(); n != 0 {
			t.Fatalf("%d fetches still held after PrefetchCache returned", n)
		}
		if got := ctrl.Cache().ChunksForFile(bad); got != 0 {
			t.Fatalf("the failed file has %d chunks cached", got)
		}
	})
}

// sheddingStore is a fakeStore behind a server that admits limit fetches
// at a time and sheds the rest with an overload error.
type sheddingStore struct {
	*fakeStore
	limit    int64
	inFlight atomic.Int64
	sheds    atomic.Int64
}

func (s *sheddingStore) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	defer s.inFlight.Add(-1)
	if s.inFlight.Add(1) > s.limit {
		s.sheds.Add(1)
		return nil, fmt.Errorf("server busy: %w", resilience.ErrOverload)
	}
	time.Sleep(time.Millisecond) // the service, so fetches of different files overlap
	return s.fakeStore.FetchChunk(ctx, fileID, chunkIndex, nodeID)
}

// TestPrefetchCacheOverloadBacksOff: a server that sheds fetches beyond two
// files' worth costs PrefetchCache concurrency, not the prefetch; one that
// sheds even a single file's fetches fails it with the overload error.
func TestPrefetchCacheOverloadBacksOff(t *testing.T) {
	ctrl, store := buildController(t, 12, 12, 0.02)
	defer ctrl.Close()
	plan, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	k := int64(ctrl.Files()[0].K)
	shed := &sheddingStore{fakeStore: store, limit: 2 * k}
	if err := ctrl.PrefetchCache(context.Background(), shed); err != nil {
		t.Fatalf("PrefetchCache under a server admitting two files at once: %v", err)
	}
	if shed.sheds.Load() == 0 {
		t.Fatal("test premise: the server never shed a fetch")
	}
	for i, d := range plan.D {
		if got := ctrl.Cache().ChunksForFile(i); got != d {
			t.Fatalf("file %d: cached %d, want %d", i, got, d)
		}
	}

	ctrl2, store2 := buildController(t, 12, 12, 0.02)
	defer ctrl2.Close()
	if _, err := ctrl2.PlanTimeBin(ctrlLambdas(ctrl2)); err != nil {
		t.Fatal(err)
	}
	err = ctrl2.PrefetchCache(context.Background(), &sheddingStore{fakeStore: store2, limit: 0})
	if !resilience.IsOverload(err) || !strings.HasPrefix(err.Error(), "core: prefetch file ") {
		t.Fatalf("PrefetchCache under a server shedding everything = %v, want a prefetch overload error", err)
	}
}

func TestTimeBinTransitionTrimsAndGrows(t *testing.T) {
	ctrl, store := buildController(t, 4, 4, 0.2)
	if _, err := ctrl.PlanTimeBin([]float64{0.4, 0.02, 0.02, 0.02}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.PrefetchCache(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	allocBin1 := make([]int, 4)
	for i := range allocBin1 {
		allocBin1[i] = ctrl.Cache().ChunksForFile(i)
	}
	// Second bin: file 0 goes cold, file 3 becomes hot.
	plan2, err := ctrl.PlanTimeBin([]float64{0.02, 0.02, 0.02, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan2.D {
		have := ctrl.Cache().ChunksForFile(i)
		if d < allocBin1[i] && have > d {
			t.Fatalf("file %d should have been trimmed to %d, still has %d", i, d, have)
		}
		if have > d {
			t.Fatalf("file %d holds %d chunks above its new allocation %d", i, have, d)
		}
	}
	// Reading a grown file materialises its new chunks in the background.
	for i, d := range plan2.D {
		if d > ctrl.Cache().ChunksForFile(i) {
			if _, err := ctrl.Read(context.Background(), i, store); err != nil {
				t.Fatal(err)
			}
			ctrl.WaitFills()
			if ctrl.Cache().ChunksForFile(i) != d {
				t.Fatalf("file %d lazy fill incomplete: %d of %d", i, ctrl.Cache().ChunksForFile(i), d)
			}
		}
	}
	if ctrl.Stats().PlanUpdates != 2 {
		t.Fatalf("plan updates = %d", ctrl.Stats().PlanUpdates)
	}
}

func TestReadPropagatesFetchErrors(t *testing.T) {
	ctrl, store := buildController(t, 1, 0, 0.05)
	if _, err := ctrl.PlanTimeBin([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("disk on fire")
	for c := 0; c < 3; c++ {
		store.fail[[2]int{0, c}] = wantErr
	}
	if _, err := ctrl.Read(context.Background(), 0, store); !errors.Is(err, wantErr) {
		t.Fatalf("expected injected error, got %v", err)
	}
}

// FetcherFunc adapts a function to the ChunkFetcher interface.
type FetcherFunc func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error)

// FetchChunk implements ChunkFetcher.
func (f FetcherFunc) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	return f(ctx, fileID, chunkIndex, nodeID)
}

func TestFetcherFuncAdapter(t *testing.T) {
	called := false
	f := FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		called = true
		return []byte{1}, nil
	})
	if _, err := f.FetchChunk(context.Background(), 0, 0, 0); err != nil || !called {
		t.Fatal("FetcherFunc adapter broken")
	}
}

func TestCacheAllocationTarget(t *testing.T) {
	ctrl, _ := buildController(t, 2, 4, 0.2)
	if ctrl.CacheAllocationTarget(0) != 0 {
		t.Fatal("target should be 0 before planning")
	}
	plan, err := ctrl.PlanTimeBin([]float64{0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.D {
		if ctrl.CacheAllocationTarget(i) != plan.D[i] {
			t.Fatal("target mismatch")
		}
	}
	if ctrl.CacheAllocationTarget(99) != 0 {
		t.Fatal("out-of-range file should report 0")
	}
}

func TestFunctionalChunksAreValidErasureChunks(t *testing.T) {
	// The cached chunks installed by the controller must verify against the
	// file's code. A partially cached file holds functional chunks, not
	// copies of storage chunks; a fully cached one holds the k data chunks
	// and decodes from them alone.
	for _, capacity := range []int{1, 2} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			ctrl, store := buildController(t, 1, capacity, 0.3)
			plan, err := ctrl.PlanTimeBin([]float64{0.3})
			if err != nil {
				t.Fatal(err)
			}
			if plan.D[0] != capacity {
				t.Fatalf("test premise: allocation %d, want the whole cache (%d)", plan.D[0], capacity)
			}
			if err := ctrl.PrefetchCache(context.Background(), store); err != nil {
				t.Fatal(err)
			}
			meta := ctrl.Files()[0]
			dataChunks, err := meta.Code.Split(store.data[0])
			if err != nil {
				t.Fatal(err)
			}
			cached := ctrl.Cache().GetFile(0)
			if len(cached) != plan.D[0] {
				t.Fatalf("%d cached chunks found, want %d", len(cached), plan.D[0])
			}
			for idx, payload := range cached {
				if plan.D[0] < meta.K && idx < meta.N {
					t.Fatalf("cached chunk %d is a storage chunk copy, not a functional chunk", idx)
				}
				if plan.D[0] == meta.K && idx >= meta.K {
					t.Fatalf("cached chunk %d of a fully cached file is not a data chunk", idx)
				}
				if want, err := meta.Code.ChunkAt(idx, dataChunks); err != nil || !bytes.Equal(payload, want) {
					t.Fatalf("cached chunk %d fails verification (%v)", idx, err)
				}
			}
			// And decoding using only cache chunks + the first storage chunks
			// works (for the fully cached file: the cache chunks alone).
			chunks := make([]erasure.Chunk, 0, meta.K)
			for idx, payload := range cached {
				chunks = append(chunks, erasure.Chunk{Index: idx, Data: payload})
			}
			for c := 0; len(chunks) < meta.K; c++ {
				chunks = append(chunks, erasure.Chunk{Index: c, Data: mustChunk(t, store, 0, c)})
			}
			got, err := meta.Code.Decode(chunks, meta.SizeBytes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, store.data[0]) {
				t.Fatal("decode using cached chunks failed")
			}
		})
	}
}

func mustChunk(t *testing.T, s *fakeStore, fileID, chunkIndex int) []byte {
	t.Helper()
	ch, err := s.FetchChunk(context.Background(), fileID, chunkIndex, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}
