package bench

import (
	"bytes"
	"strings"
	"testing"

	"sprout/internal/workload"
)

// workloadClass16MB returns the 16 MB class of the production workload,
// used to exercise the testbed comparison with a single small object size.
func workloadClass16MB() workload.ObjectClass {
	for _, c := range workload.TableIIIWorkload() {
		if c.Name == "16MB" {
			return c
		}
	}
	panic("16MB class missing from Table III workload")
}

// tiny returns a very small configuration so unit tests stay fast; the
// benchmark suite and the CLI run the larger configurations.
func tiny() Config {
	return Config{Files: 40, SimHorizon: 800, Seed: 1}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Files != 1000 || c.SimHorizon <= 0 || c.Seed == 0 {
		t.Fatalf("defaults = %+v", c)
	}
	q := Quick()
	if q.Files >= Paper().Files {
		t.Fatal("Quick config should be smaller than Paper config")
	}
}

func TestTableWrite(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	tab.Write(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "b", "1", "2", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3ConvergenceShape(t *testing.T) {
	series, err := Fig3Convergence(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 7 {
		t.Fatalf("expected 7 cache sizes, got %d", len(series))
	}
	for i, s := range series {
		if len(s.Objectives) == 0 {
			t.Fatalf("series %d has no history", i)
		}
		// The objective must not increase across outer iterations.
		for j := 1; j < len(s.Objectives); j++ {
			if s.Objectives[j] > s.Objectives[j-1]+1e-6 {
				t.Fatalf("series %d objective increased", i)
			}
		}
		// Convergence within the paper's 20-iteration envelope.
		if s.Iterations > 20 {
			t.Fatalf("series %d took %d iterations (> 20)", i, s.Iterations)
		}
		// Larger caches should not converge to worse latency.
		if i > 0 {
			prev := series[i-1].Objectives[len(series[i-1].Objectives)-1]
			cur := s.Objectives[len(s.Objectives)-1]
			if cur > prev+0.25 {
				t.Fatalf("larger cache converged to noticeably worse latency: %v -> %v", prev, cur)
			}
		}
	}
	Fig3Table(series) // must not panic
}

func TestFig4CacheSizeMonotone(t *testing.T) {
	points, err := Fig4CacheSize(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 {
		t.Fatalf("expected 9 points, got %d", len(points))
	}
	if points[0].CacheSize != 0 {
		t.Fatal("first point should be the no-cache case")
	}
	// Latency decreases (within tolerance) as the cache grows and reaches ~0
	// when every chunk fits.
	for i := 1; i < len(points); i++ {
		if points[i].Latency > points[i-1].Latency+0.3 {
			t.Fatalf("latency increased with cache size: %v -> %v", points[i-1], points[i])
		}
	}
	last := points[len(points)-1]
	if last.Latency > 0.5 {
		t.Fatalf("full-size cache should drive latency to ~0, got %v", last.Latency)
	}
	if points[0].Latency < last.Latency {
		t.Fatal("no-cache latency should exceed full-cache latency")
	}
	Fig4Table(points)
}

func TestFig5EvolutionTracksRates(t *testing.T) {
	res, err := Fig5Evolution(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations) != 3 {
		t.Fatalf("expected 3 bins, got %d", len(res.Allocations))
	}
	for bin, alloc := range res.Allocations {
		if len(alloc) != 10 {
			t.Fatalf("bin %d has %d files", bin, len(alloc))
		}
		total := 0
		for _, d := range alloc {
			total += d
		}
		if total > 10 {
			t.Fatalf("bin %d uses %d chunks, capacity 10", bin, total)
		}
	}
	Fig5Table(res)
}

func TestFig6PlacementTrend(t *testing.T) {
	points, err := Fig6Placement(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("expected 6 sweep points, got %d", len(points))
	}
	// The paper's qualitative claim: the first two files hold no more cache
	// at the lowest rate than at the highest rate, despite being the most
	// popular throughout.
	first, last := points[0], points[len(points)-1]
	if first.ChunksFirstTwo > last.ChunksFirstTwo {
		t.Fatalf("cache share of the first two files should not shrink as their rate grows: %d -> %d",
			first.ChunksFirstTwo, last.ChunksFirstTwo)
	}
	Fig6Table(points)
}

func TestFig7RequestSplit(t *testing.T) {
	// 200 files is above the file count the rates were calibrated at: the
	// paper's per-object rates alone would exceed the cluster's capacity.
	for _, files := range []int{tiny().Files, 200} {
		cfg := tiny()
		cfg.Files = files
		series, err := Fig7RequestSplit(cfg)
		if err != nil {
			t.Fatalf("%d files: %v", files, err)
		}
		if len(series) != 2 {
			t.Fatalf("%d files: expected 2 workloads, got %d", files, len(series))
		}
		for _, s := range series {
			if len(s.Slots) != 20 {
				t.Fatalf("%d files: expected 20 slots, got %d", files, len(s.Slots))
			}
			if s.CacheFraction <= 0 || s.CacheFraction >= 1 {
				t.Fatalf("%d files: cache fraction = %v, want in (0,1)", files, s.CacheFraction)
			}
			// Paper: more chunks come from storage than from cache overall.
			var cacheTotal, storageTotal int64
			for _, slot := range s.Slots {
				cacheTotal += slot.CacheChunks
				storageTotal += slot.StorageChunks
			}
			if cacheTotal >= storageTotal {
				t.Fatalf("%d files: cache chunks %d should be fewer than storage chunks %d", files, cacheTotal, storageTotal)
			}
		}
		Fig7Table(series)
	}
}

func TestFig9ServiceCDFMatchesTableIV(t *testing.T) {
	results, err := Fig9ServiceCDF(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("expected 5 chunk sizes, got %d", len(results))
	}
	for _, r := range results {
		if r.Samples == 0 {
			t.Fatal("no samples collected")
		}
		// Measured mean within 20% of the published mean.
		if rel := abs(r.MeanMillis-r.PaperMeanMillis) / r.PaperMeanMillis; rel > 0.2 {
			t.Fatalf("chunk %d: measured mean %.2f vs paper %.2f (rel %.2f)",
				r.ChunkSizeBytes, r.MeanMillis, r.PaperMeanMillis, rel)
		}
		// CDF is non-decreasing.
		for i := 1; i < len(r.CDFTimesMillis); i++ {
			if r.CDFTimesMillis[i] < r.CDFTimesMillis[i-1] {
				t.Fatal("CDF times not sorted")
			}
		}
	}
	Fig9Table(results)
}

func TestTableVCacheLatency(t *testing.T) {
	rows, err := TableVCacheLatency(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if abs(r.MeasuredMillis-r.PaperMillis)/r.PaperMillis > 0.01 {
			t.Fatalf("cache latency %v deviates from paper %v", r.MeasuredMillis, r.PaperMillis)
		}
		if r.CacheToStorage >= 1 {
			t.Fatalf("cache reads should be faster than storage reads (ratio %v)", r.CacheToStorage)
		}
	}
	TableVTable(rows)
}

func TestFig10SingleClassComparison(t *testing.T) {
	// Full Fig. 10 is exercised by the benchmark suite; here a single small
	// class validates the comparison machinery end to end.
	cfg := tiny()
	class := workloadClass16MB()
	res, err := compareForClass(cfg, class, class.ArrivalRate*4)
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalLatencyMs <= 0 || res.BaselineLatencyMs <= 0 {
		t.Fatalf("latencies must be positive: %+v", res)
	}
	if res.NumericalBoundMs < res.OptimalLatencyMs*0.5 {
		t.Fatalf("analytic bound %.2f implausibly below measured %.2f", res.NumericalBoundMs, res.OptimalLatencyMs)
	}
	if res.OptimalLatencyMs > res.BaselineLatencyMs {
		t.Fatalf("optimal caching (%.2f ms) should not lose to the LRU baseline (%.2f ms)",
			res.OptimalLatencyMs, res.BaselineLatencyMs)
	}
}

func TestPolicyAblationOrdering(t *testing.T) {
	cfg := tiny()
	results, err := PolicyAblation(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationResult{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	functional := byName["functional (Algorithm 1)"]
	exact := byName["exact caching (same allocation)"]
	noCache := byName["no cache"]
	wholeFile := byName["whole-file caching"]
	// Both policies are solved with the same local heuristic, so allow a
	// small relative slack; structurally functional caching dominates exact
	// caching because its feasible scheduling set is a superset.
	if functional.Objective > exact.Objective*1.005 {
		t.Fatalf("functional (%.3f) should not lose to exact caching (%.3f)", functional.Objective, exact.Objective)
	}
	if functional.Objective > noCache.Objective*1.005 {
		t.Fatalf("functional (%.3f) should not lose to no cache (%.3f)", functional.Objective, noCache.Objective)
	}
	// The paper's claim against whole-file caching: at a budget that is not
	// a multiple of k = 4, functional caching also caches the remainder, and
	// wins by at least 0.5 % (23.534 vs 23.890 measured, −1.5 %).
	if functional.Objective > wholeFile.Objective*0.995 {
		t.Fatalf("C=30: functional (%.3f) should beat whole-file caching (%.3f) by 0.5 %%", functional.Objective, wholeFile.Objective)
	}
	AblationTable(results)

	// At a multiple of k the two may tie, but functional never loses.
	results, err = PolicyAblation(cfg, 28)
	if err != nil {
		t.Fatal(err)
	}
	byName = map[string]AblationResult{}
	for _, r := range results {
		byName[r.Policy] = r
	}
	if f, w := byName["functional (Algorithm 1)"], byName["whole-file caching"]; f.Objective > w.Objective {
		t.Fatalf("C=28: functional (%.4f) should not lose to whole-file caching (%.4f)", f.Objective, w.Objective)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestReadPointModes(t *testing.T) {
	cfg := tiny()
	clu, lambdas, err := readCluster(cfg.Files, readFileSize, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := encodeReadCorpus(clu, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"par", "hedge"} {
		res, err := readPoint(clu, lambdas, chunks, cfg, 2*cfg.Files, mode, 4, 40)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Ops != 40 || res.OpsPerSec <= 0 {
			t.Fatalf("%s: degenerate result %+v", mode, res)
		}
		if res.P50ms > res.P99ms {
			t.Fatalf("%s: p50 %.2f > p99 %.2f", mode, res.P50ms, res.P99ms)
		}
		if res.CacheShare <= 0 {
			t.Fatalf("%s: warm point served nothing from cache: %+v", mode, res)
		}
	}
	if _, err := readPoint(clu, lambdas, chunks, cfg, 0, "bogus", 1, 1); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestReadTableSpeedupColumn(t *testing.T) {
	results := []ReadResult{
		{Cache: "cold", Mode: "par", Readers: 16, Ops: 10, OpsPerSec: 100},
		{Cache: "cold", Mode: "hedge", Readers: 16, Ops: 10, OpsPerSec: 250},
	}
	var buf bytes.Buffer
	ReadTable(results).Write(&buf)
	if !strings.Contains(buf.String(), "2.50x") {
		t.Fatalf("missing speedup column:\n%s", buf.String())
	}
}
