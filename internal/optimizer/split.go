package optimizer

import (
	"fmt"
	"math"
	"sort"
)

// TenantShare is one tenant's slice of the cache-optimization problem: the
// files it owns and its weight in the budget split.
type TenantShare struct {
	// Weight is the tenant's share of the cache budget relative to the other
	// shares. Values < 1 are treated as 1.
	Weight int
	// Files are the file indices (into Problem.Files) the tenant owns.
	Files []int
}

// weight is the share's Weight with values < 1 read as 1.
func (s TenantShare) weight() int {
	return max(s.Weight, 1)
}

// SplitBudgets divides capacity across the shares in proportion to their
// weights using largest-remainder rounding, so the budgets sum exactly to
// capacity and no tenant loses more than one chunk to quantisation.
func SplitBudgets(capacity int, shares []TenantShare) []int {
	n := len(shares)
	budgets := make([]int, n)
	if n == 0 || capacity <= 0 {
		return budgets
	}
	total := 0
	for _, s := range shares {
		total += s.weight()
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	used := 0
	for i, s := range shares {
		exact := float64(capacity) * float64(s.weight()) / float64(total)
		budgets[i] = int(exact)
		used += budgets[i]
		rems[i] = rem{idx: i, frac: exact - float64(budgets[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; i < capacity-used; i++ {
		budgets[rems[i%n].idx]++
	}
	return budgets
}

// OptimizeSplit runs Algorithm 1 once per tenant over a weighted partition of
// the cache budget, then merges the per-tenant plans. Each tenant's
// sub-problem sees only its own files' arrival rates, a cache capacity equal
// to its weighted share, and — mirroring the serving path's deficit-round-
// robin scheduler — storage nodes whose service rates are scaled down to the
// tenant's weight fraction, so the sub-plans are individually stable within
// their fair slice and therefore jointly stable when combined. A tenant
// whose load cannot fit its service slice falls back to the full service
// rates (weighted fair queueing is work-conserving: unclaimed capacity is
// usable), trading the per-slice stability proof for feasibility.
//
// The merged plan's objective is re-evaluated against the full problem, so
// it is comparable with Optimize's output; when the work-conserving fallback
// leaves the combined configuration outside the stability region, the
// lambda-weighted mean of the sub-objectives is reported instead.
//
// Every file must be owned by exactly one share.
func OptimizeSplit(p *Problem, opts Options, shares []TenantShare) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(shares) == 0 {
		return Optimize(p, opts)
	}
	owner := make([]int, len(p.Files))
	for i := range owner {
		owner[i] = -1
	}
	for t, s := range shares {
		for _, f := range s.Files {
			if f < 0 || f >= len(p.Files) {
				return nil, fmt.Errorf("optimizer: share %d owns unknown file %d", t, f)
			}
			if owner[f] >= 0 {
				return nil, fmt.Errorf("optimizer: file %d owned by shares %d and %d", f, owner[f], t)
			}
			owner[f] = t
		}
	}
	for f, o := range owner {
		if o < 0 {
			return nil, fmt.Errorf("optimizer: file %d owned by no share", f)
		}
	}

	budgets := SplitBudgets(p.CacheCapacity, shares)
	totalWeight := 0
	for _, s := range shares {
		totalWeight += s.weight()
	}

	merged := &Plan{
		D:  make([]int, len(p.Files)),
		Pi: make([][]float64, len(p.Files)),
		Z:  make([]float64, len(p.Files)),
	}
	var subObjective, subLambda float64
	for t, s := range shares {
		sub := *p
		sub.CacheCapacity = budgets[t]
		sub.Files = make([]FileSpec, len(p.Files))
		copy(sub.Files, p.Files)
		var tenantLambda float64
		for i := range sub.Files {
			if owner[i] != t {
				sub.Files[i].Lambda = 0
			} else {
				tenantLambda += sub.Files[i].Lambda
			}
		}
		subOpts := opts
		if opts.WarmStart != nil {
			warm := make([]int, len(p.Files))
			for _, f := range s.Files {
				if f < len(opts.WarmStart) {
					warm[f] = opts.WarmStart[f]
				}
			}
			subOpts.WarmStart = warm
		}
		// Fair slice of the service capacity first; full capacity as the
		// work-conserving fallback.
		frac := float64(s.weight()) / float64(totalWeight)
		sliced := sub
		sliced.Nodes = append(sub.Nodes[:0:0], sub.Nodes...)
		for j := range sliced.Nodes {
			sliced.Nodes[j].Mu *= frac
		}
		plan, err := Optimize(&sliced, subOpts)
		if err != nil {
			plan, err = Optimize(&sub, subOpts)
		}
		if err != nil {
			return nil, fmt.Errorf("optimizer: tenant share %d: %w", t, err)
		}
		for _, f := range s.Files {
			merged.D[f] = plan.D[f]
			merged.Pi[f] = plan.Pi[f]
			merged.Z[f] = plan.Z[f]
		}
		if plan.Iterations > merged.Iterations {
			merged.Iterations = plan.Iterations
		}
		merged.History = append(merged.History, plan.Objective)
		subObjective += tenantLambda * plan.Objective
		subLambda += tenantLambda
	}

	// Score the merged configuration against the undivided problem so the
	// objective is comparable with a joint Optimize run.
	l := newLayout(p.Files)
	e := newEvaluator(p, l)
	x := make([]float64, l.size)
	for i, f := range p.Files {
		xs := l.fileSlice(x, i)
		for j, node := range f.Nodes {
			xs[j] = merged.Pi[i][node]
		}
	}
	z := make([]float64, len(p.Files))
	if e.optimalZ(x, z) {
		if obj := e.objective(x, z); isFiniteObjective(obj) {
			copy(merged.Z, z)
			merged.Objective = obj
			merged.History = append(merged.History, obj)
			return merged, nil
		}
	}
	if subLambda > 0 {
		merged.Objective = subObjective / subLambda
	} else {
		merged.Objective = math.Inf(1)
	}
	return merged, nil
}
