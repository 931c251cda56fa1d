package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"sprout/internal/optimizer"
	"sprout/internal/resilience"
)

// failingNodeFetcher wraps a fakeStore and fails every fetch aimed at one
// node, regardless of file or chunk.
func failingNodeFetcher(store *fakeStore, node int, fail error) FetcherFunc {
	return func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		if nodeID == node {
			return nil, fail
		}
		return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	}
}

// buildControllerWith mirrors buildController but with explicit serve options.
func buildControllerWith(t *testing.T, numFiles, capacity int, lambda float64, serve ServeOptions) (*Controller, *fakeStore) {
	t.Helper()
	clu := testCluster(numFiles, lambda)
	ctrl, err := NewControllerWith(clu, capacity, optimizer.Options{}, serve, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := newFakeStore()
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		for i := range payload {
			payload[i] = byte(meta.ID + i)
		}
		store.addFile(t, meta, payload)
	}
	return ctrl, store
}

// TestBreakerDemotesFlakyNode drives reads against a node that fails every
// fetch: its breaker must open, later reads must demote it to the tail of
// the candidate order (counted in BreakerDemotions), and every read must
// still succeed — a breaker avoids a node, it never makes data unreachable.
func TestBreakerDemotesFlakyNode(t *testing.T) {
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{
		ErrorThreshold: 2,
		OpenFor:        time.Minute, // stays open for the whole test
	})
	ctrl, store := buildControllerWith(t, 4, 0, 0.05, ServeOptions{Breakers: breakers})
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	const flaky = 2
	fetcher := failingNodeFetcher(store, flaky, errors.New("injected: node misbehaving"))

	for round := 0; round < 20; round++ {
		for fileID := 0; fileID < 4; fileID++ {
			if _, err := ctrl.Read(context.Background(), fileID, fetcher); err != nil {
				t.Fatalf("round %d file %d: %v", round, fileID, err)
			}
		}
	}
	// Within its minute-long OpenFor only an open breaker refuses traffic.
	if breakers.Allow(flaky) {
		t.Fatal("flaky node's breaker admits traffic, want it open")
	}
	stats := ctrl.Stats()
	if stats.BreakerDemotions == 0 {
		t.Fatal("open breaker never demoted the node in candidate ordering")
	}
	if stats.FetchFailovers == 0 {
		t.Fatal("expected failovers while the breaker was still closed")
	}
}

// TestOverloadPropagatesThroughFailover is the controller half of the
// ErrOverloaded-propagation coverage: an overloaded node is failed over
// (the read succeeds), and when every source is overloaded the surfaced
// error still classifies as overload for upstream planes.
func TestOverloadPropagatesThroughFailover(t *testing.T) {
	ctrl, store := buildController(t, 4, 0, 0.05)
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	overload := fmt.Errorf("transport: server overloaded: %w", resilience.ErrOverload)

	// One overloaded node: reads fail over and succeed.
	fetcher := failingNodeFetcher(store, 1, overload)
	for fileID := 0; fileID < 4; fileID++ {
		if _, err := ctrl.Read(context.Background(), fileID, fetcher); err != nil {
			t.Fatalf("file %d with one overloaded node: %v", fileID, err)
		}
	}

	// Every node overloaded: the read must fail and the error must keep its
	// overload classification across the failover wrapping.
	allOverloaded := FetcherFunc(func(context.Context, int, int, int) ([]byte, error) {
		return nil, overload
	})
	_, err := ctrl.Read(context.Background(), 0, allOverloaded)
	if err == nil {
		t.Fatal("read with every node overloaded should fail")
	}
	if !resilience.IsOverload(err) {
		t.Fatalf("surfaced error %v lost its overload classification", err)
	}
}

// saturate pushes the admission gate's in-flight count to twice its
// MaxInFlight so subsequent reads observe the deepest brownout level: each
// read enters and leaves around the pinned count, so the level holds.
func saturate(t *testing.T, ctrl *Controller) {
	t.Helper()
	if ctrl.adm == nil {
		t.Fatal("admission gate not configured")
	}
	ctrl.adm.inflight.Add(2 * int64(ctrl.adm.cfg.MaxInFlight))
	if lvl := ctrl.SaturationLevel(); lvl != 3 {
		t.Fatalf("saturation level = %d, want 3", lvl)
	}
}

// TestSaturationShedsLowValueReads plans a bin with skewed rates and forces
// the gate to level 3: reads of the below-median file are shed with
// ErrSaturated (which classifies as overload), reads of high-value files
// still pass, and the shed/brownout counters account for both.
func TestSaturationShedsLowValueReads(t *testing.T) {
	ctrl, store := buildControllerWith(t, 3, 0, 0.05, ServeOptions{
		Admission: &AdmissionConfig{},
	})
	defer ctrl.Close()
	// File 0 is strictly below the median rate — the shed target.
	if _, err := ctrl.PlanTimeBin([]float64{0.01, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	saturate(t, ctrl)

	_, err := ctrl.Read(context.Background(), 0, store)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("low-value read = %v, want ErrSaturated", err)
	}
	if !resilience.IsOverload(err) {
		t.Fatal("ErrSaturated must classify as overload")
	}
	if _, err := ctrl.Read(context.Background(), 1, store); err != nil {
		t.Fatalf("high-value read under saturation: %v", err)
	}
	stats := ctrl.Stats()
	if stats.ShedReads == 0 || stats.BrownoutReads == 0 {
		t.Fatalf("stats = %+v, want shed and brownout reads counted", stats)
	}
	if ctrl.SaturationScore() < 1 {
		t.Fatalf("saturation score = %v, want >= 1 under pressure", ctrl.SaturationScore())
	}
}

// TestBrownoutSuppressesHedging pins level >= 1 behaviour: a saturated
// controller with hedging configured must not arm the hedge timer, and must
// count the withheld hedges.
func TestBrownoutSuppressesHedging(t *testing.T) {
	ctrl, store := buildControllerWith(t, 3, 0, 0.05, ServeOptions{
		HedgeDelay: time.Nanosecond, // would fire instantly if armed
		HedgeExtra: 1,
		Admission:  &AdmissionConfig{},
	})
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	saturate(t, ctrl)
	for fileID := 0; fileID < 3; fileID++ {
		// With uniform rates the level-3 shed ladder ranks the bottom ⌊n/2⌋
		// files low-value, so one read may legitimately shed; the reads that
		// pass must still withhold their hedges.
		if _, err := ctrl.Read(context.Background(), fileID, store); err != nil && !errors.Is(err, ErrSaturated) {
			t.Fatalf("file %d: %v", fileID, err)
		}
	}
	stats := ctrl.Stats()
	if stats.HedgesSuppressed == 0 {
		t.Fatalf("stats = %+v, want hedges suppressed under brownout", stats)
	}
	if stats.HedgesLaunched != 0 {
		t.Fatalf("launched %d hedges while saturated", stats.HedgesLaunched)
	}
}

// TestAdmissionGateLevels pins the gate arithmetic: the queue-depth signal
// crosses the three brownout thresholds as in-flight reads rise.
func TestAdmissionGateLevels(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{MaxInFlight: 4})
	if lvl := g.level(); lvl != 0 {
		t.Fatalf("idle level = %d, want 0", lvl)
	}
	for i := 0; i < 3; i++ {
		g.enter()
	}
	if lvl := g.level(); lvl != 1 { // 3/4 = 0.75
		t.Fatalf("level at 3/4 inflight = %d, want 1", lvl)
	}
	g.enter()
	if lvl := g.level(); lvl != 2 { // 4/4 = 1.0
		t.Fatalf("level at 4/4 inflight = %d, want 2", lvl)
	}
	g.enter()
	if lvl := g.level(); lvl != 3 { // 5/4 = 1.25
		t.Fatalf("level at 5/4 inflight = %d, want 3", lvl)
	}
	for i := 0; i < 5; i++ {
		g.leave()
	}
	if lvl := g.level(); lvl != 0 {
		t.Fatalf("level after drain = %d, want 0", lvl)
	}
}

// TestAdmissionScoreIsQueueDepth: the score is the in-flight read count
// over MaxInFlight, which defaults to 256.
func TestAdmissionScoreIsQueueDepth(t *testing.T) {
	g := newAdmissionGate(AdmissionConfig{})
	g.inflight.Store(128)
	if got := g.score(); got != 0.5 {
		t.Fatalf("score at 128 in flight of the default = %v, want 0.5", got)
	}
	g = newAdmissionGate(AdmissionConfig{MaxInFlight: 10})
	g.inflight.Store(15)
	if got := g.score(); got != 1.5 {
		t.Fatalf("score at 15 in flight of 10 = %v, want 1.5", got)
	}
}

// TestSaturationLevelMapsScore: SaturationLevel is the threshold map of
// SaturationScore — 0.75, 1.0 and 1.25 open levels 1, 2 and 3.
func TestSaturationLevelMapsScore(t *testing.T) {
	ctrl, _ := buildControllerWith(t, 2, 0, 0.05, ServeOptions{
		Admission: &AdmissionConfig{MaxInFlight: 100},
	})
	defer ctrl.Close()
	for _, tc := range []struct {
		inflight int64
		score    float64
		level    int
	}{
		{0, 0, 0},
		{50, 0.5, 0},
		{74, 0.74, 0},
		{75, 0.75, 1},
		{99, 0.99, 1},
		{100, 1.0, 2},
		{124, 1.24, 2},
		{125, 1.25, 3},
		{1000, 10, 3},
	} {
		ctrl.adm.inflight.Store(tc.inflight)
		score, level := ctrl.SaturationScore(), ctrl.SaturationLevel()
		if score != tc.score || level != tc.level || level != brownoutLevel(score) {
			t.Errorf("inflight %d: score %v level %d, want score %v level %d",
				tc.inflight, score, level, tc.score, tc.level)
		}
	}
}

// TestLowValueFiles pins the shed-priority rule: strictly below-median rates
// are low-value; when ties at the median swallow the bottom half, the rank
// fallback marks the bottom ⌊n/2⌋ so level 3 keeps something to shed.
func TestLowValueFiles(t *testing.T) {
	low := lowValueFiles([]float64{0.01, 0.5, 0.2})
	if !low[0] || low[1] || low[2] {
		t.Fatalf("lowValueFiles = %v, want only the below-median file marked", low)
	}
	if lowValueFiles(nil) != nil {
		t.Fatal("no rates should yield no marks")
	}
	if low := lowValueFiles([]float64{0.5}); low[0] {
		t.Fatal("a lone file must never be marked low-value")
	}
	// Two files at identical rates: the strict rule marks nothing (the median
	// ties both), which made level 3 a no-op under hard saturation. The rank
	// fallback must mark exactly one — the lower file ID.
	low = lowValueFiles([]float64{0.3, 0.3})
	if !low[0] || low[1] {
		t.Fatalf("two equal rates: lowValueFiles = %v, want exactly file 0 marked", low)
	}
	// Uniform rates across n files: fallback marks the bottom half by rank.
	low = lowValueFiles([]float64{0.3, 0.3, 0.3, 0.3})
	if !low[0] || !low[1] || low[2] || low[3] {
		t.Fatalf("uniform rates: lowValueFiles = %v, want bottom half by rank", low)
	}
	// A tie above the true bottom half must not trigger the fallback.
	low = lowValueFiles([]float64{0.1, 0.2, 0.5, 0.5})
	if !low[0] || !low[1] || low[2] || low[3] {
		t.Fatalf("ties above median: lowValueFiles = %v, want the two slow files", low)
	}
}

// medianRuleLowValue is the rule lowValueFiles was first written as, with its
// two quadratic insertion sorts: mark the files strictly below the median
// rate; when ties at the median leave fewer than ⌊n/2⌋ of them, mark the
// bottom ⌊n/2⌋ by (rate, file ID) rank instead.
func medianRuleLowValue(lambdas []float64) []bool {
	n := len(lambdas)
	if n == 0 {
		return nil
	}
	sorted := append([]float64(nil), lambdas...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	median := sorted[n/2]
	low := make([]bool, n)
	marked := 0
	for i, l := range lambdas {
		if l < median {
			low[i] = true
			marked++
		}
	}
	if marked >= n/2 {
		return low
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j], idx[j-1]
			if lambdas[a] < lambdas[b] || (lambdas[a] == lambdas[b] && a < b) {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			} else {
				break
			}
		}
	}
	clear(low)
	for _, f := range idx[:n/2] {
		low[f] = true
	}
	return low
}

// TestLowValueFilesMatchesMedianRule: the single sort marks every zero-rate
// file plus exactly what the median rule marks among the positive-rate
// files, on inputs full of ties.
func TestLowValueFilesMatchesMedianRule(t *testing.T) {
	values := []float64{0, 0.1, 0.3, 2}
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lambdas := make([]float64, rng.Intn(65))
		var served []int
		var servedRates []float64
		for i := range lambdas {
			lambdas[i] = values[rng.Intn(len(values))]
			if lambdas[i] > 0 {
				served = append(served, i)
				servedRates = append(servedRates, lambdas[i])
			}
		}
		var want []bool
		if len(lambdas) > 0 {
			want = make([]bool, len(lambdas))
			for i, l := range lambdas {
				want[i] = l == 0
			}
			for j, low := range medianRuleLowValue(servedRates) {
				want[served[j]] = low
			}
		}
		if got := lowValueFiles(lambdas); !slices.Equal(got, want) {
			t.Fatalf("seed %d: rates %v\n got %v\nwant %v", seed, lambdas, got, want)
		}
	}
}

// TestSaturationShedsMaskedPlanServedFile: a shard controller is planned
// over a masked rate vector — zeros for the files other shards own. At
// level 3 it must still shed its own lowest-rate file; ranking the zeros
// with the served files used to spend the whole bottom half on them.
func TestSaturationShedsMaskedPlanServedFile(t *testing.T) {
	ctrl, store := buildControllerWith(t, 8, 0, 0.05, ServeOptions{
		Admission: &AdmissionConfig{},
	})
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin([]float64{0, 0, 0, 0, 0.01, 0.2, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	saturate(t, ctrl)
	if _, err := ctrl.Read(context.Background(), 4, store); !errors.Is(err, ErrSaturated) {
		t.Fatalf("read of the lowest-rate served file at level 3 = %v, want ErrSaturated", err)
	}
	if _, err := ctrl.Read(context.Background(), 7, store); err != nil {
		t.Fatalf("read of the highest-rate file at level 3: %v", err)
	}
}

// TestResilienceConcurrentReads hammers a controller that has breakers,
// admission control, hedging, and a flaky node all enabled at once — the
// race detector checks the new paths, and every failure must be a
// saturation shed, never a correctness error.
func TestResilienceConcurrentReads(t *testing.T) {
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{ErrorThreshold: 3})
	ctrl, store := buildControllerWith(t, 4, 0, 0.05, ServeOptions{
		HedgeDelay: 100 * time.Microsecond,
		HedgeExtra: 1,
		Breakers:   breakers,
		Admission:  &AdmissionConfig{MaxInFlight: 4},
	})
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin([]float64{0.01, 0.1, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	fetcher := failingNodeFetcher(store, 3, errors.New("injected: flaky"))

	var wg sync.WaitGroup
	errCh := make(chan error, 8*50)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := ctrl.Read(context.Background(), (g+i)%4, fetcher); err != nil {
					errCh <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("concurrent read failed with non-shed error: %v", err)
		}
	}
}
