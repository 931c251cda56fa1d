package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/racedetect"
)

// TestReadIntoReusesBuffer checks ReadInto appends into the supplied
// buffer and round-trips the same bytes as Read.
func TestReadIntoReusesBuffer(t *testing.T) {
	ctrl, store := buildController(t, 3, 0, 0.05)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	for fileID := 0; fileID < 3; fileID++ {
		payload, err := ctrl.ReadInto(context.Background(), fileID, store, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, store.data[fileID]) {
			t.Fatalf("file %d round-trip mismatch through reused buffer", fileID)
		}
		if cap(buf) >= len(payload) && &buf[:1][0] != &payload[:1][0] {
			t.Fatalf("file %d: ReadInto reallocated despite sufficient capacity", fileID)
		}
		buf = payload
	}
}

// TestReadPathLeaseBalance proves the pooled read scratch and the fill
// arena return every lease on success, fetch-error, and cancellation
// paths alike.
func TestReadPathLeaseBalance(t *testing.T) {
	scratchBefore := ReadScratchPool().Outstanding()
	fillBefore := FillArena().Outstanding()

	ctrl, store := buildController(t, 4, 6, 0.05)
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Success paths (these also enqueue background fills for files whose
	// allocation grew, exercising the fill arena copies).
	for round := 0; round < 5; round++ {
		for fileID := 0; fileID < 4; fileID++ {
			if _, err := ctrl.Read(ctx, fileID, store); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Fetch-error path: every storage fetch fails.
	broken := FetcherFunc(func(context.Context, int, int, int) ([]byte, error) {
		return nil, errors.New("injected: node unreachable")
	})
	for fileID := 0; fileID < 4; fileID++ {
		_, err := ctrl.Read(ctx, fileID, broken)
		if err == nil {
			// Tolerated: a file fully materialised in cache needs no fetch.
			continue
		}
	}
	// Cancellation path: context canceled before the read starts, with a
	// fetcher that honours it.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	honouring := FetcherFunc(func(fctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		if err := fctx.Err(); err != nil {
			return nil, err
		}
		return store.FetchChunk(fctx, fileID, chunkIndex, nodeID)
	})
	for fileID := 0; fileID < 4; fileID++ {
		_, _ = ctrl.Read(canceled, fileID, honouring)
	}
	ctrl.WaitFills()
	ctrl.Close()

	if got := ReadScratchPool().Outstanding(); got != scratchBefore {
		t.Errorf("read scratch leases: outstanding %d -> %d (leak or double release)", scratchBefore, got)
	}
	if got := FillArena().Outstanding(); got != fillBefore {
		t.Errorf("fill arena leases: outstanding %d -> %d (leak or double release)", fillBefore, got)
	}
}

// TestFetchWorkersExitOnClose is the goroutine-leak check for the blocking
// adapter, which runs each fetch on a goroutine of its own: a hedged read
// returns while its loser is still held in FetchChunk, the loser's context is
// cancelled when the read returns, Close waits for the loser's goroutine, and
// everything spawned while serving is gone after Close.
func TestFetchWorkersExitOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 3,
		ServeOptions{HedgeDelay: 2 * time.Millisecond, HedgeExtra: 2})
	var (
		calls     atomic.Int64
		cancelled = make(chan error, 1)
		returned  atomic.Bool
		stop      = make(chan struct{})
	)
	// Runs before the controller's cleanup Close: a loser the read failed to
	// cancel must fail the test, not hang it.
	t.Cleanup(func() { close(stop) })
	fetcher := FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		if calls.Add(1) > 1 {
			return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
		}
		// The loser: held until the read cancels it, then slow to return, so
		// a Close that does not wait for it returns first.
		select {
		case <-ctx.Done():
		case <-stop:
		}
		cancelled <- ctx.Err()
		time.Sleep(50 * time.Millisecond)
		returned.Store(true)
		return nil, ctx.Err()
	})
	done := make(chan error, 1)
	go func() {
		got, err := ctrl.Read(context.Background(), 0, fetcher)
		if err == nil && !bytes.Equal(got, store.data[0]) {
			err = errors.New("read returned wrong data")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a hedged read waited for its loser")
	}
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the loser's context ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hedge loser's context was not cancelled when its read returned")
	}
	ctrl.Close()
	if !returned.Load() {
		t.Fatal("Close returned while a blocking fetch was still running")
	}
	waitGoroutines(t, before)
}

// TestReadIntoZeroAllocCached is the unit-level version of the benchmark
// acceptance: a warm cache-complete read through ReadInto must not
// allocate at all.
func TestReadIntoZeroAllocCached(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("race instrumentation changes escape analysis; alloc counts measured without -race")
	}
	ctrl, store := buildController(t, 2, 64, 0.05)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ctrl.PrefetchCache(ctx, store); err != nil {
		t.Fatal(err)
	}
	// The capacity is large enough for the optimizer to materialise every
	// chunk; require a cache-complete read so the measurement below is the
	// pure cached path.
	if _, err := ctrl.ReadInto(ctx, 0, store, nil); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stats().CacheOnlyReads == 0 {
		t.Skip("plan did not fully materialise file 0; cached path not reachable")
	}
	if racedetect.Enabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		payload, err := ctrl.ReadInto(ctx, 0, store, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = payload[:0]
	})
	if allocs != 0 {
		t.Errorf("warm cached ReadInto allocates %.1f/op, want 0", allocs)
	}
}
