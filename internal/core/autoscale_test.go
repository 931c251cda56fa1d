package core

import (
	"context"
	"testing"
	"time"

	"sprout/internal/optimizer"
)

// buildAutoscaled builds a controller with a materialised plan for the given
// per-file rates and a hand-driven autoscaler (no background loop, so tests
// step it deterministically).
func buildAutoscaled(t *testing.T, lambdas []float64, capacity int, cfg AutoscaleConfig) (*Controller, *fakeStore, *autoscaler) {
	t.Helper()
	clu := testCluster(len(lambdas), 0.05)
	ctrl, err := NewController(clu, capacity, optimizer.Options{MaxOuterIter: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	store := newFakeStore()
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		for i := range payload {
			payload[i] = byte(meta.ID + i)
		}
		store.addFile(t, meta, payload)
	}
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.PrefetchCache(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	return ctrl, store, newAutoscaler(ctrl, cfg)
}

// TestAutoscalerColdToZeroAndRegrow is the headline loop: a cold file scales
// to zero after the cold dwell, and regrows within one evaluation of a hot
// flip.
func TestAutoscalerColdToZeroAndRegrow(t *testing.T) {
	lambdas := []float64{5, 5, 5}
	ctrl, _, asc := buildAutoscaled(t, lambdas, 6, AutoscaleConfig{ColdWindows: 3})
	plan := ctrl.Plan()
	if plan.D[0] == 0 {
		t.Fatalf("test premise: file 0 got no allocation: %v", plan.D)
	}
	hot := append([]float64(nil), lambdas...)

	cases := []struct {
		name       string
		rates      []float64
		wantTarget int // target[0] after the step
	}{
		{"hot steady state", hot, plan.D[0]},
		{"cold window 1", []float64{0, 5, 5}, plan.D[0]},
		{"cold window 2", []float64{0, 5, 5}, plan.D[0]},
		{"cold window 3 scales to zero", []float64{0, 5, 5}, 0},
		{"stays at zero while cold", []float64{0, 5, 5}, 0},
		{"hot flip regrows in one window", hot, plan.D[0]},
	}
	for _, tc := range cases {
		asc.step(tc.rates)
		if got := asc.target[0]; got != tc.wantTarget {
			t.Fatalf("%s: target[0] = %d, want %d", tc.name, got, tc.wantTarget)
		}
	}

	st := ctrl.Stats()
	if st.AutoscaleToZero != 1 || st.AutoscaleDowns != 1 {
		t.Errorf("to-zero/downs = %d/%d, want 1/1", st.AutoscaleToZero, st.AutoscaleDowns)
	}
	if st.AutoscaleFreed != int64(plan.D[0]) {
		t.Errorf("freed = %d chunks, want %d", st.AutoscaleFreed, plan.D[0])
	}
	if st.AutoscaleUps != 1 || st.AutoscaleGranted != int64(plan.D[0]) {
		t.Errorf("ups/granted = %d/%d, want 1/%d", st.AutoscaleUps, st.AutoscaleGranted, plan.D[0])
	}
	// Scale-to-zero must actually release the chunks and cancel the fill;
	// the regrow must re-register the fill so the next read materialises it.
	if got := ctrl.Cache().ChunksForFile(0); got != 0 {
		t.Errorf("file 0 still holds %d cached chunks after scale-to-zero", got)
	}
	if want, ok := ctrl.epoch.Load().pending[0]; !ok || want != plan.D[0] {
		t.Errorf("pending[0] = %d (present=%v), want %d", want, ok, plan.D[0])
	}
}

// TestAutoscalerHysteresis drives worst-case oscillating and lukewarm rate
// patterns through the overlay and asserts it never flaps.
func TestAutoscalerHysteresis(t *testing.T) {
	lambdas := []float64{5, 5, 5}
	cases := []struct {
		name  string
		rates func(step int) float64 // rate of file 0 at each step
		// wantChanges bounds how often target[0] may change over 20 steps.
		wantChanges int
	}{
		// Alternating cold/hot: the grow resets the cold streak, so the
		// shrink dwell never accumulates and the target never moves.
		{"square wave never flaps", func(i int) float64 {
			if i%2 == 0 {
				return 0
			}
			return 5
		}, 0},
		// Lukewarm (between coldRatio·λ and hotRatio·λ): inside the
		// hysteresis band the overlay holds steady.
		{"lukewarm holds steady", func(int) float64 { return 1.0 }, 0},
		// Noise around the hot threshold: file stays hot, never shrinks.
		{"jitter around hot threshold", func(i int) float64 {
			if i%2 == 0 {
				return 2.4
			}
			return 2.6
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, asc := buildAutoscaled(t, lambdas, 6, AutoscaleConfig{ColdWindows: 3})
			asc.step(lambdas) // settle the overlay on the plan
			changes := 0
			prev := asc.target[0]
			for i := 0; i < 20; i++ {
				asc.step([]float64{tc.rates(i), 5, 5})
				if asc.target[0] != prev {
					changes++
					prev = asc.target[0]
				}
			}
			if changes > tc.wantChanges {
				t.Fatalf("target[0] changed %d times, want ≤ %d", changes, tc.wantChanges)
			}
		})
	}
}

// TestAutoscalerViralGrant: a file the plan gave nothing turns hotter than
// anything planned; once cold files free budget, it is granted cache.
func TestAutoscalerViralGrant(t *testing.T) {
	// File 3 is almost dead at plan time: the optimizer gives it nothing.
	lambdas := []float64{0.5, 0.5, 0.5, 0.001}
	ctrl, _, asc := buildAutoscaled(t, lambdas, 6, AutoscaleConfig{ColdWindows: 2})
	plan := ctrl.Plan()
	if plan.D[3] != 0 {
		t.Fatalf("test premise: viral file should start unplanned, D=%v", plan.D)
	}

	// While the plan's budget is fully claimed, a viral flip gets nothing.
	viral := []float64{5, 5, 5, 20}
	asc.step(viral)
	if asc.target[3] != 0 {
		t.Fatalf("viral file granted %d chunks with no free budget", asc.target[3])
	}

	// File 0 goes cold and frees its chunks; the viral file claims them.
	for i := 0; i < 2; i++ {
		asc.step([]float64{0, 5, 5, 20})
	}
	if asc.target[0] != 0 {
		t.Fatalf("cold file not scaled to zero: target=%v", asc.target)
	}
	asc.step([]float64{0, 5, 5, 20})
	k := ctrl.Files()[3].K
	wantGrant := plan.D[0]
	if wantGrant > k {
		wantGrant = k
	}
	if asc.target[3] != wantGrant {
		t.Fatalf("viral grant = %d, want %d (freed=%d, k=%d)", asc.target[3], wantGrant, plan.D[0], k)
	}
	if want, ok := ctrl.epoch.Load().pending[3]; !ok || want != wantGrant {
		t.Errorf("pending[3] = %d (present=%v), want %d", want, ok, wantGrant)
	}
	if st := ctrl.Stats(); st.AutoscaleGranted != int64(wantGrant) {
		t.Errorf("granted counter = %d, want %d", st.AutoscaleGranted, wantGrant)
	}
}

// TestAutoscalerResetsOnReplan: a fresh plan supersedes the overlay.
func TestAutoscalerResetsOnReplan(t *testing.T) {
	lambdas := []float64{5, 5, 5}
	ctrl, _, asc := buildAutoscaled(t, lambdas, 6, AutoscaleConfig{ColdWindows: 1})
	asc.step([]float64{0, 5, 5}) // file 0 straight to zero (ColdWindows=1)
	if asc.target[0] != 0 {
		t.Fatalf("target[0] = %d, want 0", asc.target[0])
	}
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		t.Fatal(err)
	}
	asc.step(lambdas)
	if asc.target[0] != ctrl.Plan().D[0] {
		t.Fatalf("overlay did not reset on replan: target[0]=%d, plan=%d", asc.target[0], ctrl.Plan().D[0])
	}
}

// TestAutoscalerWiring: the ServeOptions path starts the loop, owns the
// estimator, and exposes targets.
func TestAutoscalerWiring(t *testing.T) {
	clu := testCluster(3, 0.05)
	ctrl, err := NewControllerWith(clu, 4, optimizer.Options{MaxOuterIter: 6}, ServeOptions{
		Autoscale: &AutoscaleConfig{Interval: time.Millisecond},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if ctrl.est == nil {
		t.Fatal("Autoscale option did not create the workload estimator")
	}
	if got := ctrl.AutoscaleTargets(); len(got) != 3 {
		t.Fatalf("AutoscaleTargets = %v, want 3 entries", got)
	}
	ctrl2, _ := buildController(t, 2, 4, 0.05)
	defer ctrl2.Close()
	if got := ctrl2.AutoscaleTargets(); got != nil {
		t.Fatalf("AutoscaleTargets without autoscaler = %v, want nil", got)
	}
}
