package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/metrics"
	"sprout/internal/optimizer"
)

// TestConcurrentReadsAndPlanSwaps hammers the read plane from many
// goroutines while the control plane swaps epochs; every read must decode
// the correct payload. Run under -race this verifies the read plane shares
// no unsynchronised state with PlanTimeBin.
func TestConcurrentReadsAndPlanSwaps(t *testing.T) {
	const numFiles = 6
	ctrl, store := buildController(t, numFiles, 8, 0.2)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr atomic.Value
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				fileID := rng.Intn(numFiles)
				got, err := ctrl.Read(context.Background(), fileID, store)
				if err != nil {
					readErr.Store(err)
					return
				}
				if !bytes.Equal(got, store.data[fileID]) {
					readErr.Store(fmt.Errorf("file %d content mismatch", fileID))
					return
				}
			}
		}(w)
	}

	// Swap plans while the readers run: alternate which files are hot so
	// allocations grow and shrink across epochs.
	for i := 0; i < 20; i++ {
		lambdas := make([]float64, numFiles)
		for f := range lambdas {
			lambdas[f] = 0.02
		}
		lambdas[i%numFiles] = 0.4
		if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := readErr.Load(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().PlanUpdates; got != 21 {
		t.Fatalf("plan updates = %d, want 21", got)
	}
}

// TestPlanSwapDuringBlockedRead proves Read holds no controller-wide lock:
// a read blocked inside the fetcher must not prevent PlanTimeBin from
// completing a full epoch swap.
func TestPlanSwapDuringBlockedRead(t *testing.T) {
	ctrl, store := buildController(t, 2, 0, 0.05)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocking := FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		once.Do(func() { close(entered) })
		<-release
		return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	})

	readDone := make(chan error, 1)
	go func() {
		_, err := ctrl.Read(context.Background(), 0, blocking)
		readDone <- err
	}()
	<-entered

	// The read is mid-fetch; a plan swap must complete without waiting.
	swapDone := make(chan error, 1)
	go func() {
		_, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl))
		swapDone <- err
	}()
	select {
	case err := <-swapDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PlanTimeBin blocked behind an in-flight Read")
	}

	close(release)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().PlanUpdates; got != 2 {
		t.Fatalf("plan updates = %d, want 2", got)
	}
}

// TestBackgroundFillVsTrim races background fills of a grown allocation
// against immediate trims from a shrinking plan; the cache must never hold
// more chunks than the live plan allows once the dust settles.
func TestBackgroundFillVsTrim(t *testing.T) {
	ctrl, store := buildController(t, 3, 6, 0.2)
	defer ctrl.Close()
	grow := []float64{0.4, 0.02, 0.02}
	shrink := []float64{0.02, 0.02, 0.02}
	for i := 0; i < 40; i++ {
		if _, err := ctrl.PlanTimeBin(grow); err != nil {
			t.Fatal(err)
		}
		// Reads enqueue fills for grown files while the next plan shrinks
		// them again.
		for f := 0; f < 3; f++ {
			if _, err := ctrl.Read(context.Background(), f, store); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := ctrl.PlanTimeBin(shrink)
		if err != nil {
			t.Fatal(err)
		}
		ctrl.WaitFills()
		for f, d := range plan.D {
			if have := ctrl.Cache().ChunksForFile(f); have > d {
				t.Fatalf("iter %d: file %d holds %d cached chunks above its allocation %d", i, f, have, d)
			}
		}
	}
}

// slowStore wraps fakeStore, delaying selected chunk fetches until their
// context is cancelled (or a long timeout fires) and counting cancellations.
type slowStore struct {
	*fakeStore
	slow      map[int]bool // chunkIndex -> hang until cancelled
	cancelled atomic.Int64
}

func (s *slowStore) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	if s.slow[chunkIndex] {
		select {
		case <-ctx.Done():
			s.cancelled.Add(1)
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return nil, errors.New("slow fetch was never cancelled")
		}
	}
	return s.fakeStore.FetchChunk(ctx, fileID, chunkIndex, nodeID)
}

// TestHedgedFetchCancellation serves a read whose primary fetches hang: the
// hedge timer must launch backup fetches, the read must complete from them,
// and the hanging fetches must be cancelled via context.
func TestHedgedFetchCancellation(t *testing.T) {
	clu := testCluster(1, 0.05)
	ctrl, err := NewControllerWith(clu, 0, optimizer.Options{},
		ServeOptions{HedgeDelay: 5 * time.Millisecond, HedgeExtra: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	store := newFakeStore()
	meta := ctrl.Files()[0]
	payload := make([]byte, meta.SizeBytes)
	rand.New(rand.NewSource(3)).Read(payload)
	store.addFile(t, meta, payload)
	if _, err := ctrl.PlanTimeBin([]float64{0.05}); err != nil {
		t.Fatal(err)
	}

	// The file has n=3 chunks and k=2, so the scheduler launches 2 primary
	// fetches and one backup remains for the hedge. Hang one chunk per pass:
	// whenever the slow chunk is picked as a primary, the read can only
	// complete through the hedged backup fetch, and the hanging fetch must
	// then observe cancellation. Which chunks are primaries is the
	// scheduler's (randomised) choice, so assert on the aggregate.
	var stores []*slowStore
	for iter := 0; iter < 20; iter++ {
		for slowIdx := 0; slowIdx < 3; slowIdx++ {
			ss := &slowStore{fakeStore: store, slow: map[int]bool{slowIdx: true}}
			stores = append(stores, ss)
			got, err := ctrl.Read(context.Background(), 0, ss)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("hedged read returned wrong data")
			}
		}
	}
	stats := ctrl.Stats()
	if stats.HedgesLaunched == 0 {
		t.Fatalf("expected hedges to launch, stats = %+v", stats)
	}
	if stats.HedgeWins == 0 {
		t.Fatalf("expected hedge wins, stats = %+v", stats)
	}
	// Every read has returned, so every hanging fetch had its context
	// cancelled; wait for them to observe it.
	deadline := time.Now().Add(10 * time.Second)
	cancelled := func() int64 {
		var n int64
		for _, ss := range stores {
			n += ss.cancelled.Load()
		}
		return n
	}
	for cancelled() < stats.HedgesLaunched && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cancelled() == 0 {
		t.Fatal("hanging fetches were never cancelled")
	}
}

// TestParallelFetchFailover injects a failure on one chunk; the parallel
// fetch plane must fail over to another placement node and still decode.
func TestParallelFetchFailover(t *testing.T) {
	ctrl, store := buildController(t, 1, 0, 0.05)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	// Fail one chunk; with n=3, k=2 the read can still gather 2 of 3.
	store.fail[[2]int{0, 1}] = errors.New("bad sector")
	for i := 0; i < 10; i++ {
		got, err := ctrl.Read(context.Background(), 0, store)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, store.data[0]) {
			t.Fatal("failover read returned wrong data")
		}
	}
}

// TestReadContextCancellation verifies a cancelled caller context aborts the
// read with ctx.Err().
func TestReadContextCancellation(t *testing.T) {
	ctrl, store := buildController(t, 1, 0, 0.05)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocking := FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		cancel()
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if _, err := ctrl.Read(ctx, 0, blocking); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	_ = store
}

// TestAutoReplanner drives a controller with a fast replan tick and shifts
// the workload; the auto-replanner must observe the drift and re-plan
// without any manual PlanTimeBin call.
func TestAutoReplanner(t *testing.T) {
	clu := testCluster(4, 0.05)
	ctrl, err := NewControllerWith(clu, 6, optimizer.Options{},
		ServeOptions{ReplanInterval: 20 * time.Millisecond, ReplanThreshold: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	store := newFakeStore()
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		rand.New(rand.NewSource(int64(meta.ID))).Read(payload)
		store.addFile(t, meta, payload)
	}
	if _, err := ctrl.PlanTimeBin([]float64{0.05, 0.05, 0.05, 0.05}); err != nil {
		t.Fatal(err)
	}

	// Hammer file 0 so the observed rates drift far from the planned ones.
	deadline := time.Now().Add(10 * time.Second)
	for ctrl.Stats().AutoReplans == 0 && time.Now().Before(deadline) {
		if _, err := ctrl.Read(context.Background(), 0, store); err != nil {
			t.Fatal(err)
		}
	}
	stats := ctrl.Stats()
	if stats.AutoReplans == 0 {
		t.Fatalf("auto-replanner never fired: %+v", stats)
	}
	if stats.PlanUpdates < 2 {
		t.Fatalf("plan updates = %d, want >= 2", stats.PlanUpdates)
	}
}

// TestReadLatencyHistogram checks the histogram splits cache hits from
// storage reads and produces ordered percentiles.
func TestReadLatencyHistogram(t *testing.T) {
	ctrl, store := buildController(t, 3, 6, 0.2)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin([]float64{0.2, 0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for f := 0; f < 3; f++ {
			if _, err := ctrl.Read(context.Background(), f, store); err != nil {
				t.Fatal(err)
			}
		}
	}
	lat := ctrl.ReadLatency()
	total := lat.CacheHit.Count + lat.Storage.Count
	if total != 9 {
		t.Fatalf("histogram holds %d reads, want 9", total)
	}
	for _, s := range []metrics.LatencySnapshot{lat.CacheHit.Snapshot(), lat.Storage.Snapshot()} {
		if s.Count == 0 {
			continue
		}
		if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
			t.Fatalf("unordered percentiles: %+v", s)
		}
	}
}
