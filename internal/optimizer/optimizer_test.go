package optimizer

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/queue"
	"sprout/internal/workload"
)

// smallProblem builds a modest, well-loaded test instance: 4 heterogeneous
// nodes, a handful of (3,2)-coded files, and a cache of the given size.
func smallProblem(numFiles, cacheChunks int, lambda float64) *Problem {
	nodes := []queue.NodeStats{
		queue.StatsFromDist(queue.NewExponential(1.0)),
		queue.StatsFromDist(queue.NewExponential(0.8)),
		queue.StatsFromDist(queue.NewExponential(0.5)),
		queue.StatsFromDist(queue.NewExponential(0.4)),
	}
	rng := rand.New(rand.NewSource(7))
	files := make([]FileSpec, numFiles)
	for i := range files {
		perm := rng.Perm(4)[:3]
		files[i] = FileSpec{K: 2, Nodes: perm, Lambda: lambda}
	}
	return &Problem{Nodes: nodes, Files: files, CacheCapacity: cacheChunks}
}

func TestProblemValidate(t *testing.T) {
	p := smallProblem(3, 2, 0.01)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Nodes = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for no nodes")
	}
	bad = *p
	bad.Files = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for no files")
	}
	bad = *p
	bad.CacheCapacity = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative cache")
	}
	bad = *p
	bad.Files = []FileSpec{{K: 0, Nodes: []int{0}, Lambda: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for k=0")
	}
	bad = *p
	bad.Files = []FileSpec{{K: 2, Nodes: []int{0}, Lambda: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for fewer nodes than k")
	}
	bad = *p
	bad.Files = []FileSpec{{K: 1, Nodes: []int{0, 0}, Lambda: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for duplicate node")
	}
	bad = *p
	bad.Files = []FileSpec{{K: 1, Nodes: []int{9}, Lambda: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for out-of-range node")
	}
	bad = *p
	bad.Files = []FileSpec{{K: 1, Nodes: []int{0}, Lambda: -1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative lambda")
	}
}

func TestFromCluster(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.NumFiles = 20
	c, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromCluster(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 12 || len(p.Files) != 20 || p.CacheCapacity != 10 {
		t.Fatalf("conversion wrong: %d nodes, %d files, cache %d", len(p.Nodes), len(p.Files), p.CacheCapacity)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGradientMatchesNumerical(t *testing.T) {
	p := smallProblem(5, 3, 0.05)
	l := newLayout(p.Files)
	e := newEvaluator(p, l)
	rng := rand.New(rand.NewSource(3))

	x := make([]float64, l.size)
	for i := range p.Files {
		xs := l.fileSlice(x, i)
		for j := range xs {
			xs[j] = 0.3 + 0.4*rng.Float64()
		}
	}
	z := make([]float64, len(p.Files))
	for i := range z {
		z[i] = rng.Float64()
	}

	grad := make([]float64, l.size)
	e.gradient(x, z, grad)

	const h = 1e-6
	for idx := 0; idx < l.size; idx++ {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[idx] += h
		xm[idx] -= h
		fp := e.objective(xp, z)
		fm := e.objective(xm, z)
		numeric := (fp - fm) / (2 * h)
		if math.Abs(numeric-grad[idx]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("gradient mismatch at %d: analytic %v numeric %v", idx, grad[idx], numeric)
		}
	}
}

func TestObjectiveUnstableIsInf(t *testing.T) {
	p := smallProblem(5, 0, 10) // absurdly high arrival rate
	l := newLayout(p.Files)
	e := newEvaluator(p, l)
	x := make([]float64, l.size)
	for i := range p.Files {
		xs := l.fileSlice(x, i)
		for j := range xs {
			xs[j] = 0.7
		}
	}
	z := make([]float64, len(p.Files))
	if v := e.objective(x, z); !math.IsInf(v, 1) {
		t.Fatalf("expected +Inf objective for unstable system, got %v", v)
	}
}

func TestOptimizeProducesFeasiblePlan(t *testing.T) {
	p := smallProblem(8, 6, 0.05)
	plan, err := Optimize(p, Options{MaxOuterIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() > p.CacheCapacity {
		t.Fatalf("plan uses %d chunks, capacity %d", plan.CacheUsed(), p.CacheCapacity)
	}
	for i, f := range p.Files {
		if plan.D[i] < 0 || plan.D[i] > f.K {
			t.Fatalf("d[%d]=%d outside [0,%d]", i, plan.D[i], f.K)
		}
		// Scheduling probabilities consistent with the allocation.
		var sum float64
		for j, pr := range plan.Pi[i] {
			if pr < -1e-9 || pr > 1+1e-9 {
				t.Fatalf("pi[%d][%d]=%v outside [0,1]", i, j, pr)
			}
			hosted := false
			for _, node := range f.Nodes {
				if node == j {
					hosted = true
					break
				}
			}
			if !hosted && pr != 0 {
				t.Fatalf("file %d has probability on non-hosting node %d", i, j)
			}
			sum += pr
		}
		if math.Abs(sum-float64(f.K-plan.D[i])) > 1e-3 {
			t.Fatalf("file %d: sum pi = %v, want %d", i, sum, f.K-plan.D[i])
		}
	}
	if !isFiniteObjective(plan.Objective) || plan.Objective <= 0 {
		t.Fatalf("objective = %v", plan.Objective)
	}
	if len(plan.History) == 0 || plan.Iterations == 0 {
		t.Fatal("missing convergence history")
	}
}

func TestOptimizeHistoryNonIncreasing(t *testing.T) {
	p := smallProblem(10, 8, 0.06)
	plan, err := Optimize(p, Options{MaxOuterIter: 12, OuterTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plan.History); i++ {
		if plan.History[i] > plan.History[i-1]+1e-6 {
			t.Fatalf("objective increased at iteration %d: %v -> %v", i, plan.History[i-1], plan.History[i])
		}
	}
}

func TestCachingReducesLatencyBound(t *testing.T) {
	// More cache should never hurt, and with a loaded system it should help.
	p0 := smallProblem(10, 0, 0.06)
	pC := smallProblem(10, 10, 0.06)
	plan0, err := Optimize(p0, Options{MaxOuterIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	planC, err := Optimize(pC, Options{MaxOuterIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if planC.Objective > plan0.Objective+1e-6 {
		t.Fatalf("caching increased the bound: %v > %v", planC.Objective, plan0.Objective)
	}
	if planC.CacheUsed() == 0 {
		t.Fatal("expected the optimizer to use some cache in a loaded system")
	}
}

func TestFullCacheDrivesLatencyToZero(t *testing.T) {
	// When the cache can hold every chunk of every file, the optimizer should
	// push (nearly) everything into the cache and the bound should approach 0.
	p := smallProblem(4, 8, 0.05) // 4 files * k=2 = 8 chunks
	plan, err := Optimize(p, Options{MaxOuterIter: 20, OuterTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective > 0.5 {
		t.Fatalf("with a full-size cache the bound should be near zero, got %v", plan.Objective)
	}
	if plan.CacheUsed() < 6 {
		t.Fatalf("expected nearly all chunks cached, got %d of 8", plan.CacheUsed())
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	// Total load far above total service capacity with no cache: infeasible.
	p := smallProblem(5, 0, 2.0)
	if _, err := Optimize(p, Options{MaxOuterIter: 3}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestWarmStartRespectsAllocation(t *testing.T) {
	p := smallProblem(6, 4, 0.05)
	warm := []int{1, 1, 0, 0, 0, 0}
	plan, err := Optimize(p, Options{MaxOuterIter: 5, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() > p.CacheCapacity {
		t.Fatal("warm-started plan exceeds capacity")
	}
}

// TestZeroRateFilesGetNoCache: a file with λ_i = 0 gets d_i = 0 in every
// plan, Optimize's and OptimizeSplit's, even warm-started from a plan that
// cached it — the replan that frees a file gone idle.
func TestZeroRateFilesGetNoCache(t *testing.T) {
	shares := []TenantShare{{Weight: 2, Files: []int{0, 1, 2}}, {Weight: 1, Files: []int{3, 4, 5}}}
	solvers := []struct {
		name  string
		solve func(*Problem, Options) (*Plan, error)
	}{
		{"Optimize", Optimize},
		{"OptimizeSplit", func(p *Problem, o Options) (*Plan, error) { return OptimizeSplit(p, o, shares) }},
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := smallProblem(6, 2+rng.Intn(7), 0)
		for i := range p.Files {
			p.Files[i].Lambda = 0.01 + 0.1*rng.Float64()
		}
		for _, s := range solvers {
			q := *p
			q.Files = append([]FileSpec(nil), p.Files...)
			warm, err := s.solve(&q, Options{MaxOuterIter: 6})
			if err != nil {
				t.Fatalf("seed %d %s: warm plan: %v", seed, s.name, err)
			}
			// Zero a random subset of the files the warm plan cached, and
			// maybe one it did not.
			for i := range q.Files {
				if (warm.D[i] > 0 && rng.Intn(3) > 0) || rng.Intn(6) == 0 {
					q.Files[i].Lambda = 0
				}
			}
			plan, err := s.solve(&q, Options{MaxOuterIter: 6, WarmStart: warm.D})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.name, err)
			}
			for i, f := range q.Files {
				if f.Lambda == 0 && plan.D[i] != 0 {
					t.Fatalf("seed %d %s: zero-rate file %d kept d=%d (warm D=%v, D=%v)",
						seed, s.name, i, plan.D[i], warm.D, plan.D)
				}
			}
		}
	}
}

func TestNoCacheBaseline(t *testing.T) {
	p := smallProblem(6, 4, 0.05)
	plan, err := NoCache(p, Options{MaxOuterIter: 6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() != 0 {
		t.Fatalf("NoCache plan uses %d cache chunks", plan.CacheUsed())
	}
}

func TestWholeFileCachingRespectsCapacity(t *testing.T) {
	p := smallProblem(6, 5, 0.05)
	plan, err := WholeFileCaching(p, Options{MaxOuterIter: 6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() > p.CacheCapacity {
		t.Fatalf("whole-file plan uses %d chunks > %d", plan.CacheUsed(), p.CacheCapacity)
	}
	// Files are cached in their entirety or not at all.
	for i, d := range plan.D {
		if d != 0 && d != p.Files[i].K {
			t.Fatalf("whole-file caching produced partial allocation d[%d]=%d", i, d)
		}
	}
}

func TestPopularityCachingPrefersHotFiles(t *testing.T) {
	p := smallProblem(6, 3, 0.01)
	p.Files[2].Lambda = 0.2 // make file 2 much hotter
	plan, err := PopularityCaching(p, Options{MaxOuterIter: 6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.D[2] == 0 {
		t.Fatal("popularity caching should cache the hottest file first")
	}
	if plan.CacheUsed() > p.CacheCapacity {
		t.Fatal("popularity plan exceeds capacity")
	}
}

func TestGreedyCachingUsesCacheAndIsFeasible(t *testing.T) {
	p := smallProblem(8, 6, 0.06)
	plan, err := GreedyCaching(p, Options{MaxOuterIter: 6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() == 0 {
		t.Fatal("greedy caching should allocate cache in a loaded system")
	}
	if plan.CacheUsed() > p.CacheCapacity {
		t.Fatal("greedy plan exceeds capacity")
	}
}

func TestFunctionalBeatsExactCaching(t *testing.T) {
	// The paper's headline structural claim: with the same per-file cache
	// allocation, functional caching (any k-d of n nodes) achieves a latency
	// bound no worse than exact caching (k-d of the remaining n-d nodes).
	p := smallProblem(8, 6, 0.06)
	functional, err := Optimize(p, Options{MaxOuterIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactCaching(p, functional.D, Options{MaxOuterIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if functional.Objective > exact.Objective+1e-6 {
		t.Fatalf("functional caching bound %v worse than exact caching %v", functional.Objective, exact.Objective)
	}
}

func TestOptimizeMatchesPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke test skipped in -short mode")
	}
	cfg := cluster.PaperConfig()
	cfg.NumFiles = 100 // scaled-down version of the r=1000 setup
	c, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromCluster(c, 50)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Optimize(p, Options{MaxOuterIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() > 50 {
		t.Fatalf("cache used %d > 50", plan.CacheUsed())
	}
	if plan.Objective <= 0 || plan.Objective > 60 {
		t.Fatalf("implausible objective %v for paper-like setup", plan.Objective)
	}
}

func TestPlanHelpers(t *testing.T) {
	plan := &Plan{D: []int{1, 0, 2}}
	if plan.CacheUsed() != 3 {
		t.Fatalf("CacheUsed = %d", plan.CacheUsed())
	}
}

func TestFromClusterExcluding(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.NumFiles = 6
	clu, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	down := map[int]bool{0: true, 5: true}
	prob, err := FromClusterExcluding(clu, 10, down)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range prob.Files {
		if len(f.Nodes) < f.K {
			t.Fatalf("file %d left with %d < k nodes", i, len(f.Nodes))
		}
		for _, n := range f.Nodes {
			if down[n] && len(f.Nodes) >= f.K+1 {
				t.Fatalf("file %d still lists down node %d", i, n)
			}
		}
	}
	// A plan computed on the degraded problem places no load on down nodes.
	plan, err := Optimize(prob, Options{MaxOuterIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range plan.Pi {
		if row[0] != 0 || row[5] != 0 {
			t.Fatalf("file %d scheduled on down node: pi[0]=%v pi[5]=%v", i, row[0], row[5])
		}
	}
}

// Zero-mean service (queue.Deterministic{Value: 0}, an emulated store with
// no service time) used to spin forever in latency.FileBound's bracket
// expansion. Optimize runs on its own goroutine so that a regression fails
// here after two seconds instead of hanging the whole test binary.
func TestOptimizeZeroMeanServiceTerminates(t *testing.T) {
	p := smallProblem(6, 4, 5)
	for j := range p.Nodes {
		p.Nodes[j] = queue.StatsFromDist(queue.Deterministic{Value: 0})
	}
	type result struct {
		plan *Plan
		err  error
	}
	done := make(chan result, 1)
	go func() {
		plan, err := Optimize(p, Options{})
		done <- result{plan, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Optimize: %v", r.err)
		}
		if r.plan.Objective != 0 {
			t.Fatalf("latency bound = %v with zero service time, want 0", r.plan.Objective)
		}
		for i, d := range r.plan.D {
			if got := sumSlice(r.plan.Pi[i]); math.Abs(got-float64(p.Files[i].K-d)) > 1e-6 {
				t.Fatalf("file %d: pi sums to %v, want k-d = %d", i, got, p.Files[i].K-d)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Optimize did not return within 2s on zero-mean service distributions")
	}
}

// BenchmarkOptimize times one Algorithm 1 solve on the shapes the controller
// plans at set-up: a CPU-bound store (200 files, every node a deterministic
// microsecond, no cache), the paper setting (400 files on shifted-exponential
// nodes, cache of 10 % of the chunks) and PaperConfig() at 200 files.
func BenchmarkOptimize(b *testing.B) {
	build := func(files int, service func(j int) queue.Dist, rate float64) *cluster.Cluster {
		cfg := cluster.PaperConfig()
		cfg.NumFiles = files
		c, err := cfg.Build()
		if err != nil {
			b.Fatal(err)
		}
		if service != nil {
			for j := range c.Nodes {
				c.Nodes[j].Service = service(j)
			}
			if c, err = c.WithArrivalRates(workload.Zipf(files, 0.7, rate)); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	cases := []struct {
		name  string
		clu   *cluster.Cluster
		cache int
	}{
		{"small-hot", build(200, func(int) queue.Dist { return queue.Deterministic{Value: 1e-6} }, 10000), 0},
		{"zipf-read", build(400, func(j int) queue.Dist {
			mean := 0.004 * cluster.PaperServiceRates[0] / cluster.PaperServiceRates[j]
			return queue.ShiftedExponential{Shift: mean / 2, Rate: 2 / mean}
		}, 600), 160},
		{"paper-200", build(200, nil, 0), 100},
	}
	for _, tc := range cases {
		p, err := FromCluster(tc.clu, tc.cache)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
