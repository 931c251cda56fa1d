package optimizer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sprout/internal/cluster"
	"sprout/internal/queue"
)

// oracleOptimum is the exhaustive solver: it scores every integer allocation
// d with d_i <= k_i that fills the budget, Σd = min(C, Σk), through
// optimizeWithFixedAllocation. It returns the best plan, and the best plan
// with at most one partly cached file. Smaller allocations are not scored:
// caching one more chunk of a file lets it read one chunk less from storage,
// which lowers every node's load and so every term of the bound. Only small
// problems are affordable.
func oracleOptimum(p *Problem) (best, bestOnePartial *Plan) {
	d := make([]int, len(p.Files))
	var walk func(i, left, room int)
	walk = func(i, left, room int) {
		if i == len(d) {
			plan, err := optimizeWithFixedAllocation(p, d)
			if err != nil {
				return
			}
			if best == nil || plan.Objective < best.Objective {
				best = plan
			}
			if partialFiles(p, d) <= 1 && (bestOnePartial == nil || plan.Objective < bestOnePartial.Objective) {
				bestOnePartial = plan
			}
			return
		}
		k := p.Files[i].K
		// room is Σ k_j over files i.. : what they can still take.
		for v := max(0, left-(room-k)); v <= min(k, left); v++ {
			d[i] = v
			walk(i+1, left-v, room-k)
		}
	}
	walk(0, min(p.CacheCapacity, p.totalK()), p.totalK())
	return best, bestOnePartial
}

// partialFiles counts the files a plan caches neither empty nor whole.
func partialFiles(p *Problem, d []int) int {
	n := 0
	for i, v := range d {
		if v > 0 && v < p.Files[i].K {
			n++
		}
	}
	return n
}

// reproducerProblem is five (7,4) files on eight shifted-exponential nodes,
// with the given budget, where Algorithm 1's rounding pins a node past
// stability at C = 8 and 9, while plans exist at every budget.
func reproducerProblem(cache int) *Problem {
	means := []float64{1.3346, 1.5302, 1.1030, 1.2380, 2.2287, 2.8555, 1.8501, 1.4122}
	nodes := make([]queue.NodeStats, len(means))
	for j, m := range means {
		nodes[j] = queue.StatsFromDist(queue.ShiftedExponential{Shift: m / 2, Rate: 2 / m})
	}
	files := []FileSpec{
		{K: 4, Nodes: []int{6, 0, 2, 7, 5, 1, 4}, Lambda: 0.3482},
		{K: 4, Nodes: []int{5, 4, 7, 6, 3, 1, 2}, Lambda: 0.2000},
		{K: 4, Nodes: []int{0, 2, 7, 3, 6, 4, 5}, Lambda: 0.1446},
		{K: 4, Nodes: []int{7, 5, 1, 6, 4, 2, 0}, Lambda: 0.1149},
		{K: 4, Nodes: []int{1, 0, 3, 5, 4, 6, 2}, Lambda: 0.0961},
	}
	return &Problem{Nodes: nodes, Files: files, CacheCapacity: cache}
}

// TestOptimizeFeasibleAtEveryBudget: when Algorithm 1's own rounding ends
// unstable, Optimize still returns the best feasible candidate instead of
// ErrInfeasible.
func TestOptimizeFeasibleAtEveryBudget(t *testing.T) {
	for c := 0; c <= 20; c++ {
		plan, err := Optimize(reproducerProblem(c), Options{})
		if err != nil {
			t.Fatalf("C=%d: %v", c, err)
		}
		if plan.CacheUsed() > c {
			t.Fatalf("C=%d: plan caches %d chunks", c, plan.CacheUsed())
		}
	}
}

// TestOptimizeStopsNearConverged: with no cache the reproducer's plan
// converges to 9.723 s; Algorithm 1's outer loops must stop within 0.3 % of
// that. An absolute stop at 0.01 s of gain per iteration ends at 9.785.
func TestOptimizeStopsNearConverged(t *testing.T) {
	plan, err := Optimize(reproducerProblem(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective > 9.75 {
		t.Fatalf("bound %.4f s after %d outer iterations, want <= 9.75", plan.Objective, plan.Iterations)
	}
}

// oracleInstance draws five (7,4) files with distinct Zipf rates (exponent
// 0.5–1.2) on eight heterogeneous nodes, exponential or shifted-exponential,
// at a no-cache load of 0.55–0.95, with a budget of 2–12 chunks.
func oracleInstance(rng *rand.Rand) *Problem {
	shifted := rng.Intn(2) == 0
	nodes := make([]queue.NodeStats, 8)
	var capacity float64
	for j := range nodes {
		m := 1 + 2*rng.Float64()
		if shifted {
			nodes[j] = queue.StatsFromDist(queue.ShiftedExponential{Shift: m / 2, Rate: 2 / m})
		} else {
			nodes[j] = queue.StatsFromDist(queue.NewExponential(1 / m))
		}
		capacity += nodes[j].Mu
	}
	exponent := 0.5 + 0.7*rng.Float64()
	weights := make([]float64, 5)
	var total float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -exponent)
		total += weights[i]
	}
	load := 0.55 + 0.4*rng.Float64()
	files := make([]FileSpec, len(weights))
	for i, w := range weights {
		files[i] = FileSpec{K: 4, Nodes: rng.Perm(len(nodes))[:7], Lambda: load * capacity / 4 * w / total}
	}
	return &Problem{Nodes: nodes, Files: files, CacheCapacity: 2 + rng.Intn(11)}
}

// TestOptimizeMatchesOracle: on distinct-rate instances Optimize is within
// 0.5 % of the exhaustive optimum over the integer allocations that cache at
// most one file in part — whole files plus one remainder, the shape of every
// plan Optimize returns on these instances. Where the
// unrestricted optimum caches two or more files in part, the gap to it is
// logged, not asserted: the seed-5 instance with C=11 has two fast nodes
// under every file, and caching [4 4 2 1 0] (1.3305) lets file 3 skip a slow
// node, 3.5 % below the [4 4 3 0 0] (1.3773) Algorithm 1 returns. Equal rates
// are left out: there Algorithm 1 breaks rate ties by file index and can
// miss by far more.
func TestOptimizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	problems := []*Problem{reproducerProblem(8), reproducerProblem(9)}
	for len(problems) < 24 {
		problems = append(problems, oracleInstance(rng))
	}
	for n, p := range problems {
		oracle, onePartial := oracleOptimum(p)
		if oracle == nil {
			t.Fatalf("instance %d: no allocation is feasible", n)
		}
		plan, err := Optimize(p, Options{})
		if err != nil {
			t.Fatalf("instance %d (C=%d): %v", n, p.CacheCapacity, err)
		}
		gap := (plan.Objective - oracle.Objective) / oracle.Objective
		t.Logf("instance %d: C=%d oracle D=%v (%d partial) %.5g, Optimize D=%v %.5g, gap %+.3f%%",
			n, p.CacheCapacity, oracle.D, partialFiles(p, oracle.D), oracle.Objective, plan.D, plan.Objective, 100*gap)
		if gap := (plan.Objective - onePartial.Objective) / onePartial.Objective; gap > 0.005 {
			t.Errorf("instance %d: Optimize %.6g (D=%v) is %.2f%% above the best one-partial allocation's %.6g (D=%v)",
				n, plan.Objective, plan.D, 100*gap, onePartial.Objective, onePartial.D)
		}
	}
}

// planGoldens are Optimize's plans on PaperConfig() at 200 files, and on the
// same placement with every node serving in a deterministic microsecond (the
// shape of a CPU-bound store), computed with a bisection projection and a
// line search that always backtracks to its limit. D is one digit per file.
var planGoldens = []struct {
	microsecond bool
	cache       int
	d           string
	objective   float64
}{
	{false, 0, strings.Repeat("0", 200), 34.79264628},
	{false, 50, "00040000400000000000000000000000000000000004000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000020000400004000040000400004000040000400004000040", 31.83957731},
	{false, 101, "00040000400004000040000400000000000000000004000000000000000000000000000000000000000000000000000000000001000040000400004000040000400004000040000400004000040000400004000040000400004000040000400004000040", 28.85972838},
	{false, 103, "00040000400004000040000400000000000000000004000000000000000000000000000000000000000000000000000000000003000040000400004000040000400004000040000400004000040000400004000040000400004000040000400004000040", 28.75341851},
	{true, 0, strings.Repeat("0", 200), 1.000097379e-06},
	{true, 7, "00000000000000000000000000000000000000000004000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000030", 9.941988313e-07},
}

// TestOptimizePlansUnchanged guards the planner's kernels: how the projection
// and the line search are computed may not change which chunks a plan
// caches, nor its bound by more than 0.05 %.
func TestOptimizePlansUnchanged(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.NumFiles = 200
	paper, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	for j := range fast.Nodes {
		fast.Nodes[j].Service = queue.Deterministic{Value: 1e-6}
	}
	for _, g := range planGoldens {
		clu := paper
		if g.microsecond {
			clu = fast
		}
		p, err := FromCluster(clu, g.cache)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Optimize(p, Options{})
		if err != nil {
			t.Fatalf("1µs=%v C=%d: %v", g.microsecond, g.cache, err)
		}
		var d strings.Builder
		for _, v := range plan.D {
			d.WriteByte(byte('0' + v))
		}
		if d.String() != g.d {
			t.Errorf("1µs=%v C=%d: D=%s, want %s", g.microsecond, g.cache, d.String(), g.d)
		}
		if rel := math.Abs(plan.Objective-g.objective) / g.objective; rel > 5e-4 {
			t.Errorf("1µs=%v C=%d: objective %.10g, want %.10g (%.3f%% off)", g.microsecond, g.cache, plan.Objective, g.objective, 100*rel)
		}
	}
}
