package optimizer

import (
	"fmt"
	"math"
	"sort"
)

// Options carries an optional warm start for Algorithm 1.
type Options struct {
	// WarmStart optionally provides an initial cache allocation d_i; each
	// file's storage reads are spread over its nodes by service rate.
	WarmStart []int
}

// roundFraction is the fraction of still-fractional files whose cache
// allocation is fixed to an integer in each inner rounding pass.
const roundFraction = 0.5

// Algorithm 1 alternates Prob Z and Prob Π until the latency bound stops
// improving: its outer loop stops once an iteration gains less than
// outerTol seconds of bound, refineScheduling's once a pass gains less than
// outerTol/4, and each loop runs at most maxOuterIter iterations. The gain
// is absolute, so on µs-scale bounds the outer loop stops after one.
const (
	outerTol     = 0.001
	maxOuterIter = 30
)

// Optimize runs Algorithm 1 on the problem and returns the resulting cache
// plan: the best of Algorithm 1's own plan and the candidate allocations
// below. It returns ErrInfeasible when none of them is queueing-stable.
func Optimize(p *Problem, opts Options) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Algorithm 1 can fail where a plan exists: pinning the most fractional
	// files to the ceiling of their storage reads can push a node past
	// stability. The candidates are then still tried.
	best, algErr := algorithm1(p, opts.WarmStart)

	// Candidate allocations: the caller's warm start (feasible because the
	// cache never shrinks mid-sweep in the paper's experiments) and a
	// popularity-ordered allocation, which subsumes whole-file caching of the
	// hottest files. Keeping the best of these guarantees the returned plan
	// is never worse than those simple policies — the structural property the
	// paper claims for functional caching — and makes latency monotone in
	// cache size across warm-started sweeps.
	candidates := [][]int{}
	if opts.WarmStart != nil {
		warmD := make([]int, len(p.Files))
		copy(warmD, opts.WarmStart)
		for i, f := range p.Files {
			warmD[i] = clampInt(warmD[i], 0, f.K)
			if f.Lambda == 0 {
				// A file nobody requests gets no cache in any plan: keeping
				// the chunks a warm start gave it would never free them.
				warmD[i] = 0
			}
		}
		candidates = append(candidates, warmD)
	}
	candidates = append(candidates, popularityAllocation(p))
	for _, cand := range candidates {
		if !warmFeasible(p, cand) {
			continue
		}
		c, err := optimizeWithFixedAllocation(p, cand)
		if err != nil || c.Objective >= best.Objective {
			continue
		}
		best.D, best.Pi, best.Z, best.Objective = c.D, c.Pi, c.Z, c.Objective
		best.History = append(best.History, c.Objective)
	}
	if best.D == nil {
		return nil, algErr
	}
	return best, nil
}

// algorithm1 runs the paper's alternation of Prob Z and Prob Π with integer
// rounding, then polishes the scheduling for the integral allocation.
// When it meets no stable configuration it returns ErrInfeasible with a plan
// that holds only Iterations and an infinite Objective.
func algorithm1(p *Problem, warmStart []int) (*Plan, error) {
	l := newLayout(p.Files)
	e := newEvaluator(p, l)
	failed := &Plan{Objective: math.Inf(1)}
	x, err := initialPoint(p, l, e, warmStart)
	if err != nil {
		return failed, err
	}
	z := make([]float64, len(p.Files))
	if !e.optimalZ(x, z) {
		return failed, ErrInfeasible
	}
	prevObj := e.objective(x, z)
	if !isFiniteObjective(prevObj) {
		return failed, ErrInfeasible
	}

	history := []float64{prevObj}
	for iter := 0; iter < maxOuterIter; iter++ {
		failed.Iterations = iter + 1
		// Prob Z: per-file optimal z for the current scheduling.
		if !e.optimalZ(x, z) {
			return failed, ErrInfeasible
		}
		// Prob Π with integer rounding: optimise scheduling (and implicitly
		// the cache allocation) for fixed z.
		if err := solveProbPi(p, l, e, x, z); err != nil {
			return failed, err
		}
		obj := e.objective(x, z)
		history = append(history, obj)
		if prevObj-obj <= outerTol {
			break
		}
		prevObj = obj
	}

	// Polish: with the integral allocation fixed, refine the scheduling
	// probabilities until convergence. This removes any slack left by the
	// rounding passes and guarantees the reported plan is at least a local
	// optimum for its own cache allocation.
	d := extractAllocation(p, l, x)
	polished, err := refineScheduling(p, l, e, x, z, d)
	if err != nil {
		return failed, err
	}
	if polished < history[len(history)-1]-1e-12 {
		history = append(history, polished)
	}
	return &Plan{D: d, Pi: p.toMatrix(l, x), Z: z, Objective: polished, History: history, Iterations: failed.Iterations}, nil
}

// warmFeasible reports whether a warm-start allocation fits the cache.
func warmFeasible(p *Problem, d []int) bool {
	total := 0
	for _, v := range d {
		total += v
	}
	return total <= p.CacheCapacity
}

// popularityAllocation builds the rate-ordered allocation: cache chunks are
// handed to files in decreasing order of arrival rate, whole files first,
// until the capacity is exhausted.
func popularityAllocation(p *Problem) []int {
	d := make([]int, len(p.Files))
	remaining := p.CacheCapacity
	for _, i := range byRateDesc(p) {
		if remaining <= 0 {
			break
		}
		// The order is rate-descending, so the first zero-rate file ends the
		// loop: a cached chunk of a never-requested file serves nothing, and
		// spilling leftover capacity there would hand sharded controllers
		// cache outside their namespace slice.
		if p.Files[i].Lambda == 0 {
			break
		}
		take := p.Files[i].K
		if take > remaining {
			take = remaining
		}
		d[i] = take
		remaining -= take
	}
	return d
}

// refineScheduling pins the cache allocation to d and alternates Prob Z with
// projected-gradient scheduling optimization until the objective stops
// improving. x and z are updated in place; the final objective is returned.
func refineScheduling(p *Problem, l layout, e *evaluator, x []float64, z []float64, d []int) (float64, error) {
	kL := make([]float64, len(p.Files))
	kU := make([]float64, len(p.Files))
	for i, f := range p.Files {
		target := float64(f.K - clampInt(d[i], 0, f.K))
		kL[i], kU[i] = target, target
	}
	project := func(y []float64) { projectFeasible(p, l, y, kL, kU, 0) }
	prev := math.Inf(1)
	for iter := 0; iter < maxOuterIter; iter++ {
		if !e.optimalZ(x, z) {
			return math.Inf(1), ErrInfeasible
		}
		obj := func(y []float64) float64 { return e.objective(y, z) }
		grad := func(y []float64, g []float64) { e.gradient(y, z, g) }
		next, value := projectedGradient(obj, grad, project, x)
		if !isFiniteObjective(value) {
			return math.Inf(1), ErrInfeasible
		}
		copy(x, next)
		cur := e.objective(x, z)
		if prev-cur <= outerTol/4 {
			break
		}
		prev = cur
	}
	if !e.optimalZ(x, z) {
		return math.Inf(1), ErrInfeasible
	}
	return e.objective(x, z), nil
}

// initialPoint builds a feasible, stable starting vector. With no warm
// start, each file spreads its k_i storage reads over its hosting nodes in
// proportion to their service rates (so heterogeneous clusters start close
// to balanced utilisation); if the result is still unstable, load is shed
// from the most loaded nodes into the cache until stable or capacity is
// exhausted.
func initialPoint(p *Problem, l layout, e *evaluator, warmStart []int) ([]float64, error) {
	x := make([]float64, l.size)
	for i, f := range p.Files {
		d := 0
		if warmStart != nil && i < len(warmStart) {
			d = clampInt(warmStart[i], 0, f.K)
		}
		spreadProportional(p, f, float64(f.K-d), l.fileSlice(x, i))
	}
	if e.nodeLoads(x) {
		return x, nil
	}
	// First try to restore stability without touching the cache by moving
	// probability mass from overloaded nodes to under-loaded nodes hosting
	// the same files.
	rebalance(p, l, e, x)
	if e.nodeLoads(x) {
		return x, nil
	}
	// Shed load: reduce probabilities on overloaded nodes, consuming cache.
	cacheLeft := float64(p.CacheCapacity) - cacheUsedFractional(p, l, x)
	for pass := 0; pass < 4*len(p.Nodes) && cacheLeft > 1e-9; pass++ {
		e.nodeLoads(x)
		worst, worstRho := -1, 0.0
		for j, s := range p.Nodes {
			rho := e.loads[j] / s.Mu
			if rho >= 1-stabilityMargin && rho > worstRho {
				worst, worstRho = j, rho
			}
		}
		if worst < 0 {
			return x, nil
		}
		// Reduce the load on the worst node to just below the stability edge
		// by scaling down every file's probability on that node.
		target := p.Nodes[worst].Mu * (1 - 2*stabilityMargin)
		excess := e.loads[worst] - target
		if excess <= 0 {
			continue
		}
		scale := target / e.loads[worst]
		var freed float64
		for i, f := range p.Files {
			xs := l.fileSlice(x, i)
			for j, node := range f.Nodes {
				if node != worst || xs[j] == 0 {
					continue
				}
				reduced := xs[j] * (1 - scale)
				if freed+reduced > cacheLeft {
					reduced = cacheLeft - freed
				}
				xs[j] -= reduced
				freed += reduced
				if freed >= cacheLeft {
					break
				}
			}
			if freed >= cacheLeft {
				break
			}
		}
		cacheLeft -= freed
		if freed == 0 {
			break
		}
	}
	if e.nodeLoads(x) {
		return x, nil
	}
	return nil, fmt.Errorf("%w: aggregate load exceeds capacity even with full cache", ErrInfeasible)
}

// spreadProportional fills xs (one entry per hosting node of file f) so the
// entries sum to target, are proportional to the nodes' service rates, and
// never exceed 1. Overflow above the per-node cap is redistributed over the
// remaining nodes (water-filling).
func spreadProportional(p *Problem, f FileSpec, target float64, xs []float64) {
	for j := range xs {
		xs[j] = 0
	}
	if target <= 0 {
		return
	}
	remaining := target
	active := make([]bool, len(f.Nodes))
	for j := range active {
		active[j] = true
	}
	for pass := 0; pass < len(f.Nodes) && remaining > 1e-12; pass++ {
		var totalRate float64
		for j, node := range f.Nodes {
			if active[j] {
				totalRate += p.Nodes[node].Mu
			}
		}
		if totalRate <= 0 {
			break
		}
		progressed := false
		for j, node := range f.Nodes {
			if !active[j] {
				continue
			}
			share := remaining * p.Nodes[node].Mu / totalRate
			if xs[j]+share >= 1 {
				share = 1 - xs[j]
				active[j] = false
			}
			if share > 0 {
				xs[j] += share
				progressed = true
			}
		}
		var sum float64
		for _, v := range xs {
			sum += v
		}
		remaining = target - sum
		if !progressed {
			break
		}
	}
	// If the target exceeds the number of hosting nodes (cannot happen for a
	// valid code) any remainder is dropped; callers constrain target <= k <= n.
}

// rebalance moves scheduling probability away from overloaded nodes onto
// under-loaded nodes hosting the same files, keeping every per-file sum
// unchanged. It is a repair pass used to find a stable starting point; the
// projected-gradient optimization refines the split afterwards.
func rebalance(p *Problem, l layout, e *evaluator, x []float64) {
	const margin = 2e-3
	for pass := 0; pass < 8*len(p.Nodes); pass++ {
		if e.nodeLoads(x) {
			return
		}
		// Pick the most overloaded node.
		worst, worstRho := -1, 0.0
		for j, s := range p.Nodes {
			rho := e.loads[j] / s.Mu
			if rho > worstRho {
				worst, worstRho = j, rho
			}
		}
		if worst < 0 || worstRho < 1-stabilityMargin {
			return
		}
		needed := e.loads[worst] - p.Nodes[worst].Mu*(1-margin)
		moved := false
		for i, f := range p.Files {
			if needed <= 0 {
				break
			}
			if p.Files[i].Lambda == 0 {
				continue
			}
			xs := l.fileSlice(x, i)
			src := -1
			for jj, node := range f.Nodes {
				if node == worst && xs[jj] > 1e-12 {
					src = jj
					break
				}
			}
			if src < 0 {
				continue
			}
			for jj, node := range f.Nodes {
				if needed <= 0 || xs[src] <= 1e-12 {
					break
				}
				if node == worst || xs[jj] >= 1-1e-12 {
					continue
				}
				spare := p.Nodes[node].Mu*(1-margin) - e.loads[node]
				if spare <= 0 {
					continue
				}
				delta := xs[src]
				if cap := 1 - xs[jj]; cap < delta {
					delta = cap
				}
				if m := spare / f.Lambda; m < delta {
					delta = m
				}
				if m := needed / f.Lambda; m < delta {
					delta = m
				}
				if delta <= 0 {
					continue
				}
				xs[src] -= delta
				xs[jj] += delta
				e.loads[worst] -= delta * f.Lambda
				e.loads[node] += delta * f.Lambda
				needed -= delta * f.Lambda
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// cacheUsedFractional returns sum_i (k_i - sum_j x_ij).
func cacheUsedFractional(p *Problem, l layout, x []float64) float64 {
	var used float64
	for i, f := range p.Files {
		used += float64(f.K) - sumSlice(l.fileSlice(x, i))
	}
	return used
}

// solveProbPi performs the inner loop of Algorithm 1: repeatedly solve the
// relaxed Prob Π with projected gradient descent, then pin the files with
// the largest fractional storage reads to integral values, until every
// file's storage-read count (and hence its cache allocation) is integral.
func solveProbPi(p *Problem, l layout, e *evaluator, x []float64, z []float64) error {
	r := len(p.Files)
	kL := make([]float64, r)
	kU := make([]float64, r)
	for i, f := range p.Files {
		kL[i] = 0
		kU[i] = float64(f.K)
		if f.Lambda == 0 || p.CacheCapacity == 0 {
			// Zero-rate files read all k chunks from storage (d_i = 0): their
			// latency term is weightless, so nothing else would take back
			// cache a warm start gave them. With no cache every file does,
			// and pinning it keeps the projection exact.
			kL[i] = kU[i]
		}
	}
	minTotal := float64(p.totalK() - p.CacheCapacity)

	project := func(y []float64) {
		projectFeasible(p, l, y, kL, kU, minTotal)
	}
	obj := func(y []float64) float64 { return e.objective(y, z) }
	grad := func(y []float64, g []float64) { e.gradient(y, z, g) }

	maxRounds := 2 + int(math.Ceil(math.Log(float64(r)+1)/math.Log(1/(1-roundFraction))))
	for round := 0; round < maxRounds+r; round++ {
		next, value := projectedGradient(obj, grad, project, x)
		if !isFiniteObjective(value) {
			return ErrInfeasible
		}
		copy(x, next)

		// Collect files whose storage-read total is still fractional.
		type fractional struct {
			file int
			frac float64
			sum  float64
		}
		var fracs []fractional
		for i := range p.Files {
			s := sumSlice(l.fileSlice(x, i))
			f := s - math.Floor(s)
			if f > 1e-6 && f < 1-1e-6 {
				fracs = append(fracs, fractional{file: i, frac: f, sum: s})
			} else {
				// Snap to the nearest integer and pin it.
				rounded := math.Round(s)
				kL[i], kU[i] = rounded, rounded
			}
		}
		if len(fracs) == 0 {
			break
		}
		// Pin the files with the largest fractional part to the ceiling of
		// their storage reads (less cache for them), following the paper.
		sort.Slice(fracs, func(a, b int) bool { return fracs[a].frac > fracs[b].frac })
		batch := int(math.Ceil(roundFraction * float64(len(fracs))))
		if batch < 1 {
			batch = 1
		}
		for _, fr := range fracs[:batch] {
			target := math.Ceil(fr.sum)
			if target > float64(p.Files[fr.file].K) {
				target = float64(p.Files[fr.file].K)
			}
			kL[fr.file], kU[fr.file] = target, target
		}
	}
	// Final projection snaps everything onto the pinned integral sums.
	project(x)
	return nil
}

// projectFeasible maps y onto (an inner approximation of) the feasible set
// of Prob Π: per-file capped simplices with sum in [kL_i, kU_i], and the
// global cache constraint sum_ij y >= minTotal. The per-file projection is
// exact; the global constraint is repaired by distributing any deficit over
// files proportionally to their remaining slack, which keeps all per-file
// constraints satisfied.
func projectFeasible(p *Problem, l layout, y []float64, kL, kU []float64, minTotal float64) {
	for i := range p.Files {
		ys := l.fileSlice(y, i)
		if err := projectCappedSimplex(ys, kL[i], kU[i]); err != nil {
			// kL > len: clamp to the largest feasible sum (all ones).
			for j := range ys {
				ys[j] = 1
			}
		}
	}
	if minTotal <= 0 {
		return
	}
	total := sumSlice(y)
	deficit := minTotal - total
	if deficit <= 1e-9 {
		return
	}
	// Distribute the deficit proportionally to per-file slack, respecting
	// per-coordinate caps. Two passes are enough because pass one consumes
	// slack exactly unless coordinate caps bind first.
	for pass := 0; pass < 4 && deficit > 1e-9; pass++ {
		var totalSlack float64
		slacks := make([]float64, len(p.Files))
		for i := range p.Files {
			ys := l.fileSlice(y, i)
			s := sumSlice(ys)
			slack := kU[i] - s
			if slack < 0 {
				slack = 0
			}
			slacks[i] = slack
			totalSlack += slack
		}
		if totalSlack <= 1e-12 {
			return
		}
		for i := range p.Files {
			if slacks[i] == 0 {
				continue
			}
			add := deficit * slacks[i] / totalSlack
			if add > slacks[i] {
				add = slacks[i]
			}
			ys := l.fileSlice(y, i)
			addToFile(ys, add)
		}
		deficit = minTotal - sumSlice(y)
	}
}

// addToFile increases the coordinates of ys by a total of add, proportional
// to each coordinate's headroom below 1.
func addToFile(ys []float64, add float64) {
	for pass := 0; pass < 3 && add > 1e-12; pass++ {
		var headroom float64
		for _, v := range ys {
			headroom += 1 - v
		}
		if headroom <= 1e-12 {
			return
		}
		granted := 0.0
		for j := range ys {
			h := 1 - ys[j]
			inc := add * h / headroom
			if inc > h {
				inc = h
			}
			ys[j] += inc
			granted += inc
		}
		add -= granted
	}
}

// extractAllocation converts the final scheduling vector into integral cache
// allocations d_i = k_i - round(sum_j x_ij).
func extractAllocation(p *Problem, l layout, x []float64) []int {
	d := make([]int, len(p.Files))
	for i, f := range p.Files {
		s := sumSlice(l.fileSlice(x, i))
		d[i] = clampInt(f.K-int(math.Round(s)), 0, f.K)
	}
	return d
}
