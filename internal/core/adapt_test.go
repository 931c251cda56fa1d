package core

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"
)

// foldSeconds is the span each test fold covers, long enough that the rates
// the tests use are whole read counts.
const foldSeconds = 100

// buildAdaptive builds a controller whose adaptive loop runs only when the
// test folds it — ReplanInterval is an hour, so the loop's own ticker never
// fires during a test — with a plan for lambdas whose cache content is
// prefetched.
func buildAdaptive(t *testing.T, lambdas []float64, capacity int, serve ServeOptions) (*Controller, *fakeStore) {
	t.Helper()
	serve.ReplanInterval = time.Hour
	ctrl, store := buildControllerWith(t, len(lambdas), capacity, 0.05, serve)
	t.Cleanup(func() { ctrl.Close() })
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.PrefetchCache(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	return ctrl, store
}

// fold runs one pass of the adaptive loop after the files were read at the
// given rates for foldSeconds.
func fold(ctrl *Controller, rates ...float64) {
	for f, r := range rates {
		for n := math.Round(r * foldSeconds); n > 0; n-- {
			ctrl.est.Observe(f)
		}
	}
	ctrl.adapt(foldSeconds)
}

// TestAdaptColdToZeroAndRegrow: a file without reads keeps its cache for two
// folds and loses it — chunks evicted, pending fill dropped — on the third,
// and the first fold with reads plans it cache again.
func TestAdaptColdToZeroAndRegrow(t *testing.T) {
	hot := []float64{0.2, 0.2, 0.2}
	cold := []float64{0, 0.2, 0.2}
	ctrl, store := buildAdaptive(t, hot, 6, ServeOptions{})
	planned := ctrl.CacheAllocationTarget(0)
	if planned == 0 || ctrl.Cache().ChunksForFile(0) != planned {
		t.Fatalf("test premise: file 0 planned %d, cached %d", planned, ctrl.Cache().ChunksForFile(0))
	}
	fold(ctrl, hot...)
	if n := ctrl.Stats().AutoReplans; n != 0 {
		t.Fatalf("%d replans at the planned rates", n)
	}
	goCold := func(phase string) {
		t.Helper()
		for i := 1; i <= 3; i++ {
			fold(ctrl, cold...)
			if got := ctrl.CacheAllocationTarget(0); (got == 0) != (i == 3) {
				t.Fatalf("%s: after %d idle folds file 0 is planned %d chunks", phase, i, got)
			}
		}
		if got := ctrl.Cache().ChunksForFile(0); got != 0 {
			t.Fatalf("%s: file 0 still holds %d cached chunks", phase, got)
		}
		if want, ok := ctrl.epoch.Load().pending[0]; ok {
			t.Fatalf("%s: file 0 still has a pending fill of %d chunks", phase, want)
		}
	}

	goCold("prefetched file")
	fold(ctrl, hot...)
	regrown := ctrl.CacheAllocationTarget(0)
	if regrown == 0 {
		t.Fatal("the first fold with reads did not plan file 0 any cache")
	}
	if want, ok := ctrl.epoch.Load().pending[0]; !ok || want != regrown {
		t.Fatalf("pending[0] = %d (present %v), want %d", want, ok, regrown)
	}
	// The regrowth is still a pending fill: going cold again must drop it.
	goCold("pending fill")
	if _, err := ctrl.Read(context.Background(), 0, store); err != nil {
		t.Fatal(err)
	}
	ctrl.WaitFills()
	if got := ctrl.Cache().ChunksForFile(0); got != 0 {
		t.Fatalf("a read of the idle file filled %d chunks", got)
	}
}

// TestAdaptHysteresis drives rate patterns through the loop and counts the
// replans and the folds that leave file 0 without cache.
func TestAdaptHysteresis(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		rate                   func(fold int) float64 // rate of file 0 at each fold
		minReplans, maxReplans int64
	}{
		// A file read every other fold never sits out three folds. Its
		// average swings by more than the threshold, so it may re-plan.
		{"reads every other fold never zero the file", func(i int) float64 {
			if i%2 == 0 {
				return 0.2
			}
			return 0
		}, 0, 20},
		// ±5 % around the planned rate stays inside ReplanThreshold (25 %).
		{"jitter within ReplanThreshold never replans", func(i int) float64 {
			if i%2 == 0 {
				return 0.19
			}
			return 0.21
		}, 0, 0},
		// A 1.5× step: the average crosses the threshold on the second fold,
		// and the new level is within the threshold of the rate re-planned
		// there.
		{"step to a new level replans once", func(int) float64 { return 0.3 }, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, _ := buildAdaptive(t, []float64{0.2, 0.2, 0.2}, 6, ServeOptions{})
			for i := 0; i < 20; i++ {
				fold(ctrl, tc.rate(i), 0.2, 0.2)
				if ctrl.CacheAllocationTarget(0) == 0 {
					t.Fatalf("fold %d: file 0 lost its cache", i)
				}
			}
			if got := ctrl.Stats().AutoReplans; got < tc.minReplans || got > tc.maxReplans {
				t.Fatalf("%d replans over 20 folds, want %d to %d", got, tc.minReplans, tc.maxReplans)
			}
		})
	}
}

// TestAdaptViralFileReachesK: a file the plan gave nothing turns hot; the
// loop re-plans it to k chunks, and its next read fills them.
func TestAdaptViralFileReachesK(t *testing.T) {
	ctrl, store := buildAdaptive(t, []float64{0.3, 0.3, 0.3, 0.001}, 6, ServeOptions{})
	if d := ctrl.CacheAllocationTarget(3); d != 0 {
		t.Fatalf("test premise: the viral file starts with %d planned chunks", d)
	}
	k := ctrl.files[3].K
	for i := 0; i < 5 && ctrl.CacheAllocationTarget(3) < k; i++ {
		fold(ctrl, 0.3, 0.3, 0.3, 1)
	}
	if d := ctrl.CacheAllocationTarget(3); d != k {
		t.Fatalf("viral file planned %d chunks, want k = %d", d, k)
	}
	if _, err := ctrl.Read(context.Background(), 3, store); err != nil {
		t.Fatal(err)
	}
	ctrl.WaitFills()
	if got := ctrl.Cache().ChunksForFile(3); got != k {
		t.Fatalf("viral file holds %d cached chunks after a read, want %d", got, k)
	}
}

// TestAdaptViralRegrowStaysInTenantShare: with the cache split between two
// tenants, a viral file of one tenant is planned cache only from its own
// tenant's share, and the other tenant's plan is untouched.
func TestAdaptViralRegrowStaysInTenantShare(t *testing.T) {
	ctrl, _ := buildAdaptive(t, []float64{0.2, 0.2, 0.2, 0.001}, 4, ServeOptions{
		Tenants: []TenantPolicy{
			{Name: "gold", Files: []int{0, 1}},
			{Name: "bronze", Files: []int{2, 3}},
		},
	})
	share := ctrl.TenantStats()["bronze"].CacheShare
	goldBefore := []int{ctrl.CacheAllocationTarget(0), ctrl.CacheAllocationTarget(1)}
	k := ctrl.files[3].K
	if share != k || ctrl.CacheAllocationTarget(3) != 0 {
		t.Fatalf("test premise: bronze share %d (want k = %d), viral file planned %d",
			share, k, ctrl.CacheAllocationTarget(3))
	}
	for i := 0; i < 5 && ctrl.CacheAllocationTarget(3) < k; i++ {
		fold(ctrl, 0.2, 0.2, 0.2, 1)
		if used := ctrl.CacheAllocationTarget(2) + ctrl.CacheAllocationTarget(3); used > share {
			t.Fatalf("fold %d: bronze planned %d chunks, share %d", i, used, share)
		}
	}
	if d := ctrl.CacheAllocationTarget(3); d != k {
		t.Fatalf("viral file planned %d chunks, want its tenant's whole share %d", d, k)
	}
	if goldAfter := []int{ctrl.CacheAllocationTarget(0), ctrl.CacheAllocationTarget(1)}; !slices.Equal(goldAfter, goldBefore) {
		t.Fatalf("gold's plan moved from %v to %v", goldBefore, goldAfter)
	}
}
