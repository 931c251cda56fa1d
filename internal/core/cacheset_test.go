package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sprout/internal/erasure"
)

// forcePlan republishes the current plan with the allocation d, running the
// real transition rule. The optimizer cannot be steered to an exact d; the
// transition can.
func forcePlan(ctrl *Controller, d ...int) {
	ep := ctrl.epoch.Load()
	plan := *ep.plan
	plan.D = d
	ctrl.applyPlan(ep.clu, &plan, ep.base, ep.clu.Lambdas())
}

// taggedPayload is a payload a reader can verify on its own: the first byte
// names the version, the rest follows from it.
func taggedPayload(tag byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = tag ^ byte(i*7)
	}
	return p
}

// countingFetcher counts the storage fetches that pass through it.
type countingFetcher struct {
	VersionedChunkFetcher
	fetches atomic.Int64
}

func (f *countingFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, StripeInfo, error) {
	f.fetches.Add(1)
	return f.VersionedChunkFetcher.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
}

// fillTo reads the file until its pending allocation is materialised.
func fillTo(t *testing.T, ctrl *Controller, fetcher ChunkFetcher, fileID, want int) {
	t.Helper()
	for i := 0; i < 50 && ctrl.Cache().ChunksForFile(fileID) != want; i++ {
		if _, err := ctrl.Read(context.Background(), fileID, fetcher); err != nil {
			t.Fatal(err)
		}
		ctrl.WaitFills()
	}
	if got := ctrl.Cache().ChunksForFile(fileID); got != want {
		t.Fatalf("file %d holds %d cached chunks, want %d", fileID, got, want)
	}
}

// checkCacheSet asserts the representation rule for one file: the cached
// index set is exactly CacheRows(d), every cached chunk is the code's chunk
// for the payload, the cache is within capacity, a partially cached file
// leaves the scheduler all n placement nodes, and the file reads back.
func checkCacheSet(t *testing.T, step string, ctrl *Controller, fetcher ChunkFetcher, fileID, d int, payload []byte) {
	t.Helper()
	meta := ctrl.files[fileID]
	cached := ctrl.Cache().GetFile(fileID)
	rows := make([]int, 0, len(cached))
	for idx := range cached {
		rows = append(rows, idx)
	}
	slices.Sort(rows)
	if want := meta.Code.CacheRows(d); !slices.Equal(rows, want) {
		t.Fatalf("%s: cached rows %v, want %v", step, rows, want)
	}
	dataChunks, err := meta.Code.Split(payload)
	if err != nil {
		t.Fatal(err)
	}
	for idx, chunk := range cached {
		if want, err := meta.Code.ChunkAt(idx, dataChunks); err != nil || !bytes.Equal(chunk, want) {
			t.Fatalf("%s: cached chunk %d does not match its encoding (%v)", step, idx, err)
		}
	}
	if have, capacity := ctrl.Cache().Len(), ctrl.Cache().Capacity(); have > capacity {
		t.Fatalf("%s: cache holds %d chunks, capacity %d", step, have, capacity)
	}
	if 0 < d && d < meta.K {
		sc := getReadScratch()
		for idx, chunk := range cached {
			sc.chunks = append(sc.chunks, erasure.Chunk{Index: idx, Data: chunk})
		}
		ctrl.candidates(sc, ctrl.epoch.Load(), meta, meta.K-d)
		offered := len(sc.cands)
		putReadScratch(sc)
		if offered != meta.N {
			t.Fatalf("%s: candidates() offers %d of %d placement nodes", step, offered, meta.N)
		}
	}
	before := ctrl.Stats()
	got, err := ctrl.Read(context.Background(), fileID, fetcher)
	if err != nil {
		t.Fatalf("%s: read: %v", step, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("%s: read returned wrong bytes", step)
	}
	after := ctrl.Stats()
	if fromCache := after.ChunksFromCache - before.ChunksFromCache; fromCache != int64(d) {
		t.Fatalf("%s: read used %d cached chunks, want %d", step, fromCache, d)
	}
}

// replanToZero re-plans with file 0 idle, as the adaptive loop does once the
// file sat out its idle folds: the plan gives it nothing.
func replanToZero(t *testing.T, ctrl *Controller) {
	t.Helper()
	if _, err := ctrl.PlanTimeBin([]float64{0, 1}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSetTransitions drives one (7,4) file's allocation 0 → k → 2 → k →
// 0 through every path that installs or removes cached chunks — plan change,
// lazy fill, write-through, a replan that zeroes an idle file — and checks
// the representation rule after each step.
func TestCacheSetTransitions(t *testing.T) {
	const size = 4<<10 + 3 // not a multiple of k: the last chunk is padded
	ctrl, _, pf, writer, payloads := writeTestController(t, 2, size, 4)
	fetcher := &countingFetcher{VersionedChunkFetcher: pf}
	ctx := context.Background()
	k := ctrl.files[0].K
	payload := payloads[0]
	write := func(tag byte) func() {
		return func() {
			payload = taggedPayload(tag, size)
			buf := bytes.Clone(payload)
			if err := ctrl.Write(ctx, 0, buf, writer); err != nil {
				t.Fatal(err)
			}
			// The caller's buffer is the caller's again once Write returns:
			// what the cache holds by reference must not be it.
			clear(buf)
		}
	}
	plan := func(d int) func() {
		return func() {
			forcePlan(ctrl, d, 0)
			fillTo(t, ctrl, fetcher, 0, d)
		}
	}
	for _, step := range []struct {
		name string
		do   func()
		d    int
	}{
		{"plan 0", plan(0), 0},
		{"write at 0", write(1), 0},
		{"plan k fills the systematic rows", plan(k), k},
		{"write-through at k", write(2), k},
		{"plan 2 re-encodes functional rows", func() {
			before := fetcher.fetches.Load()
			forcePlan(ctrl, 2, 0)
			if got := fetcher.fetches.Load() - before; got != 0 {
				t.Fatalf("shrink k -> 2 cost %d storage fetches, want 0", got)
			}
		}, 2},
		{"write-through at 2", write(3), 2},
		{"plan k swaps functional for systematic", plan(k), k},
		{"plan 1", plan(1), 1},
		{"plan 3 grows functional rows", plan(3), 3},
		{"plan 2 trims the highest functional row", plan(2), 2},
		{"plan k again", plan(k), k},
		{"replan to zero", func() { replanToZero(t, ctrl) }, 0},
		{"write after replan to zero caches nothing", write(4), 0},
	} {
		step.do()
		checkCacheSet(t, step.name, ctrl, fetcher, 0, step.d, payload)
	}
	if st := ctrl.files[0].Code.Stats(); st.CopyOnlyDecodes == 0 {
		t.Fatal("no fully cached read decoded by copy")
	}
}

// TestSystematicSetInstalledWholeOrNotAtAll over-commits the cache by one
// chunk, so file 0's k-chunk target has room for k-1: both the fill and the
// write-through must install k-1 functional rows, never k-1 data chunks.
func TestSystematicSetInstalledWholeOrNotAtAll(t *testing.T) {
	const size = 8 << 10
	ctrl, _, fetcher, writer, payloads := writeTestController(t, 2, size, 5)
	k := ctrl.files[0].K
	forcePlan(ctrl, 0, 0)
	forcePlan(ctrl, 0, 2)
	fillTo(t, ctrl, fetcher, 1, 2)
	forcePlan(ctrl, k, 2)
	fillTo(t, ctrl, fetcher, 0, k-1)
	checkCacheSet(t, "fill with room for k-1", ctrl, fetcher, 0, k-1, payloads[0])

	payload := taggedPayload(9, size)
	if err := ctrl.Write(context.Background(), 0, payload, writer); err != nil {
		t.Fatal(err)
	}
	checkCacheSet(t, "write-through with room for k-1", ctrl, fetcher, 0, k-1, payload)
	if got := ctrl.Stats().WriteThroughChunks; got != int64(k-1) {
		t.Fatalf("WriteThroughChunks = %d, want %d", got, k-1)
	}
	checkCacheSet(t, "neighbour untouched", ctrl, fetcher, 1, 2, payloads[1])
}

// TestCacheSetTransitionsUnderReaders runs the same transitions while
// readers hammer the file. A read may retry when the set is swapped under
// it; it may never fail, and never return bytes that are not one complete
// written payload.
func TestCacheSetTransitionsUnderReaders(t *testing.T) {
	const size = 8 << 10
	ctrl, _, fetcher, writer, payloads := writeTestController(t, 2, size, 4)
	ctx := context.Background()
	k := ctrl.files[0].K

	var wg sync.WaitGroup
	var stop atomic.Bool
	errCh := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []byte
			for !stop.Load() {
				got, err := ctrl.ReadInto(ctx, 0, fetcher, buf)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if !bytes.Equal(got, payloads[0]) && !bytes.Equal(got, taggedPayload(got[0], size)) {
					errCh <- fmt.Errorf("reader %d: bytes are no written payload (tag %d)", r, got[0])
					return
				}
				buf = got
			}
		}(r)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	tag := byte(0)
	for round := 0; round < 6; round++ {
		for _, d := range []int{0, k, 2, k, 0} {
			forcePlan(ctrl, d, 0)
			// The readers trigger the fill; wait for it so the next
			// transition starts from the planned set.
			for i := 0; ctrl.Cache().ChunksForFile(0) != d && i < 1000 && len(errCh) == 0; i++ {
				if _, err := ctrl.Read(ctx, 0, fetcher); err != nil {
					t.Fatal(err)
				}
				ctrl.WaitFills()
			}
			tag++
			if err := ctrl.Write(ctx, 0, taggedPayload(tag, size), writer); err != nil {
				t.Fatal(err)
			}
		}
		forcePlan(ctrl, k, 0)
		replanToZero(t, ctrl)
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := ctrl.Stats()
	t.Logf("reads %d, retries %d, cache-only %d", st.Reads, st.ReadRetries, st.CacheOnlyReads)
	if got, err := ctrl.Read(ctx, 0, fetcher); err != nil || !bytes.Equal(got, taggedPayload(tag, size)) {
		t.Fatalf("final read: err %v", err)
	}
}

// TestPrefetchSurvivesDownAndFailingNodes: a node among a file's first k
// placement nodes that is down, or up but failing, must cost the prefetch a
// failover at most — n-k other chunks exist.
func TestPrefetchSurvivesDownAndFailingNodes(t *testing.T) {
	boom := errors.New("node unreachable")
	for _, tc := range []struct {
		name     string
		markDown bool
	}{
		{"marked down", true},
		{"failing, not yet detected", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, store := buildController(t, 3, 6, 0.2)
			defer ctrl.Close()
			plan, err := ctrl.PlanTimeBin([]float64{0.2, 0.2, 0.2})
			if err != nil {
				t.Fatal(err)
			}
			if plan.D[0] == 0 {
				t.Fatal("test premise: file 0 gets no cache allocation")
			}
			// The node holding file 0's chunk 0 — one of its first k placement
			// nodes — is lost, with every chunk it stores.
			node := ctrl.files[0].Placement[0]
			for _, meta := range ctrl.files {
				if ci := chunkIndexOnNode(meta, node); ci >= 0 {
					store.fail[[2]int{meta.ID, ci}] = boom
				}
			}
			if tc.markDown {
				ctrl.SetNodeDown(nodeIDAt(ctrl.epoch.Load().clu, node))
			}
			if err := ctrl.PrefetchCache(context.Background(), store); err != nil {
				t.Fatalf("prefetch: %v", err)
			}
			for i, d := range plan.D {
				if got := ctrl.Cache().ChunksForFile(i); got != d {
					t.Fatalf("file %d: cached %d, want %d", i, got, d)
				}
			}
			if failovers := ctrl.Stats().FetchFailovers; tc.markDown && failovers != 0 {
				t.Fatalf("down nodes were still asked: %d failovers", failovers)
			}
		})
	}
}

// TestPrefetchRejectsMixedStripeVersions keeps the prefetch's "one stripe
// version per file" check across the move onto the read plane's fetch path.
// It prefetches a single file: versionFlipFetcher's one version-1 chunk is
// the first fetch of the whole PrefetchCache, which files prefetched
// concurrently would share out unpredictably.
func TestPrefetchRejectsMixedStripeVersions(t *testing.T) {
	ctrl, store := buildController(t, 1, 2, 0.3)
	defer ctrl.Close()
	plan, err := ctrl.PlanTimeBin([]float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.D[0] == 0 {
		t.Fatal("test premise: the plan caches nothing")
	}
	err = ctrl.PrefetchCache(context.Background(), &versionFlipFetcher{fakeStore: store})
	if err == nil {
		t.Fatal("prefetch accepted chunks of two stripe versions")
	}
	if !strings.HasPrefix(err.Error(), "core: prefetch file 0: ") || !strings.Contains(err.Error(), "span stripe versions") {
		t.Fatalf("prefetch failed for another reason: %v", err)
	}
	if got := ctrl.Cache().ChunksForFile(0); got != 0 {
		t.Fatalf("a mixed-version prefetch installed %d chunks", got)
	}
}
