package optimizer

import (
	"math"
	"sort"

	"sprout/internal/latency"
)

// NoCache evaluates the latency bound with no cache at all: every file
// spreads its k_i chunk reads over its hosting nodes and the scheduling is
// optimised with projected gradient (a single Prob Π solve with kL=kU=k_i).
func NoCache(p *Problem) (*Plan, error) {
	noCacheProblem := *p
	noCacheProblem.CacheCapacity = 0
	return Optimize(&noCacheProblem, Options{})
}

// WholeFileCaching greedily caches entire files (d_i = k_i) in decreasing
// order of arrival rate until the cache is full, then optimises scheduling
// for the remaining files. It is the "cache complete files" strategy the
// paper contrasts with partial functional caching.
func WholeFileCaching(p *Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	warm := make([]int, len(p.Files))
	remaining := p.CacheCapacity
	for _, i := range byRateDesc(p) {
		if remaining >= p.Files[i].K {
			warm[i] = p.Files[i].K
			remaining -= p.Files[i].K
		}
	}
	return optimizeWithFixedAllocation(p, warm)
}

// PopularityCaching allocates cache chunks one at a time to files in
// decreasing order of arrival rate (round-robin across the most popular
// files), ignoring placement and service rates. It represents a
// "cache the most popular data" policy with functional chunks.
func PopularityCaching(p *Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	order := byRateDesc(p)
	warm := make([]int, len(p.Files))
	remaining := p.CacheCapacity
	for remaining > 0 {
		progressed := false
		for _, i := range order {
			if remaining == 0 {
				break
			}
			if warm[i] < p.Files[i].K {
				warm[i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return optimizeWithFixedAllocation(p, warm)
}

// byRateDesc returns the file indices in decreasing order of arrival rate.
func byRateDesc(p *Problem) []int {
	order := make([]int, len(p.Files))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.Files[order[a]].Lambda > p.Files[order[b]].Lambda })
	return order
}

// GreedyCaching is the marginal-benefit heuristic ablation: starting from no
// cache, it repeatedly gives one more cache chunk to the file whose latency
// bound decreases the most when its read on the currently slowest selected
// node is dropped, until the cache is full. Scheduling probabilities are
// then re-optimised once with the allocation fixed.
func GreedyCaching(p *Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := newLayout(p.Files)
	e := newEvaluator(p, l)

	// Start from the even, no-cache spread.
	x := make([]float64, l.size)
	for i, f := range p.Files {
		per := float64(f.K) / float64(len(f.Nodes))
		xs := l.fileSlice(x, i)
		for j := range xs {
			xs[j] = per
		}
	}
	d := make([]int, len(p.Files))
	remaining := p.CacheCapacity

	for remaining > 0 {
		moments, ok := e.moments(x)
		if !ok {
			// Unstable: shed the most loaded node greedily by caching from
			// the file contributing the most to it.
			moments = nil
		}
		bestFile, bestGain := -1, 0.0
		dense := make([]float64, len(p.Nodes))
		for i, f := range p.Files {
			if d[i] >= f.K || f.Lambda == 0 {
				continue
			}
			xs := l.fileSlice(x, i)
			// Current bound.
			for j := range dense {
				dense[j] = 0
			}
			for j, node := range f.Nodes {
				dense[node] = xs[j]
			}
			var before float64
			if moments != nil {
				before, _ = latency.FileBound(dense, moments)
			} else {
				before = math.Inf(1)
			}
			// Remove the selected node with the largest mean response time.
			worst, worstMean := -1, -1.0
			for j, node := range f.Nodes {
				if xs[j] > 1e-9 {
					mean := e.eq[node]
					if mean > worstMean {
						worst, worstMean = j, mean
					}
				}
			}
			if worst < 0 {
				continue
			}
			saved := dense[f.Nodes[worst]]
			dense[f.Nodes[worst]] = 0
			var after float64
			if moments != nil {
				after, _ = latency.FileBound(dense, moments)
			} else {
				after = 0
			}
			dense[f.Nodes[worst]] = saved
			gain := (before - after) * f.Lambda
			if gain > bestGain {
				bestGain, bestFile = gain, i
			}
		}
		if bestFile < 0 {
			break
		}
		// Commit: drop the probability mass on the chosen file's worst node.
		f := p.Files[bestFile]
		xs := l.fileSlice(x, bestFile)
		worst, worstMean := -1, -1.0
		for j, node := range f.Nodes {
			if xs[j] > 1e-9 && e.eq[node] > worstMean {
				worst, worstMean = j, e.eq[node]
			}
		}
		if worst < 0 {
			break
		}
		xs[worst] = 0
		// Renormalise the remaining mass to k_i - d_i - 1 chunks.
		d[bestFile]++
		remaining--
		targetSum := float64(f.K - d[bestFile])
		cur := sumSlice(xs)
		if cur > 0 && targetSum >= 0 {
			scale := targetSum / cur
			for j := range xs {
				xs[j] *= scale
			}
		}
	}
	return optimizeWithFixedAllocation(p, d)
}

// optimizeWithFixedAllocation runs Algorithm 1 with the cache allocation
// pinned to the supplied values: each file's storage reads are forced to
// exactly k_i - d_i, and only the scheduling probabilities are optimised.
func optimizeWithFixedAllocation(p *Problem, d []int) (*Plan, error) {
	l := newLayout(p.Files)
	e := newEvaluator(p, l)

	alloc := make([]int, len(d))
	for i := range d {
		alloc[i] = clampInt(d[i], 0, p.Files[i].K)
	}
	x, err := initialPoint(p, l, e, alloc)
	if err != nil {
		return nil, err
	}
	z := make([]float64, len(p.Files))
	if !e.optimalZ(x, z) {
		return nil, ErrInfeasible
	}
	final, err := refineScheduling(p, l, e, x, z, alloc)
	if err != nil {
		return nil, err
	}
	return &Plan{
		D:          alloc,
		Pi:         p.toMatrix(l, x),
		Z:          append([]float64(nil), z...),
		Objective:  final,
		History:    []float64{final},
		Iterations: 1,
	}, nil
}

// ExactCaching models the exact-copy caching baseline: d_i chunks of file i
// are stored verbatim in the cache, so the corresponding storage nodes can
// no longer serve that file (their chunks are the ones cached), and the
// remaining k_i - d_i reads must come from the other n_i - d_i nodes. The
// cached copies are chosen from the nodes with the slowest mean service
// (the most favourable choice for exact caching). The allocation d is taken
// from an existing plan (typically a functional-caching plan) so the two
// policies can be compared at identical cache budgets.
func ExactCaching(p *Problem, d []int) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	restricted := *p
	restricted.Files = make([]FileSpec, len(p.Files))
	for i, f := range p.Files {
		di := clampInt(d[i], 0, f.K)
		// Drop the di slowest nodes (largest mean service time) from the
		// file's candidate set.
		nodes := append([]int(nil), f.Nodes...)
		sort.Slice(nodes, func(a, b int) bool {
			return 1/p.Nodes[nodes[a]].Mu > 1/p.Nodes[nodes[b]].Mu
		})
		kept := nodes[di:]
		if len(kept) < f.K-di {
			kept = nodes // should not happen since n_i >= k_i
		}
		restricted.Files[i] = FileSpec{K: f.K, Nodes: kept, Lambda: f.Lambda}
	}
	return optimizeWithFixedAllocation(&restricted, d)
}
