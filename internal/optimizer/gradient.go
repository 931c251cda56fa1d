package optimizer

import (
	"math"
	"slices"
)

// The convex-optimization toolkit Algorithm 1 needs in place of the
// commercial solver (MOSEK) used in the paper: exact Euclidean projection
// onto the per-file constraint sets of Prob Π, and projected gradient descent
// with a backtracking line search.
//
// The projection onto a capped simplex finds its Lagrange multiplier in
// closed form from the sorted breakpoints of a piecewise-linear sum, with no
// tolerance and no iteration cap. The line search stops an iteration, and
// the descent, as soon as no step along the projection arc can gain
// pgTolerance: for fixed z the Lemma-1 objective is convex in π, so
// g·(x − P(x − t·g)) bounds the decrease of the step of length t, and that
// bound only shrinks as t does.
const (
	// pgMaxIter caps projected-gradient iterations per Prob Π solve.
	pgMaxIter = 80
	// pgTolerance is the per-step improvement threshold for Prob Π.
	pgTolerance = 1e-6
	// pgInitialStep is the first trial step size.
	pgInitialStep = 64
	// pgStepShrink is the backtracking factor.
	pgStepShrink = 0.5
	// pgMinStep is the smallest trial step before an iteration gives up.
	pgMinStep = 1e-12
	// pgMaxBacktrack caps the backtracking steps per iteration.
	pgMaxBacktrack = 40
)

// projectedGradient minimises obj over the convex set defined by project
// using gradient steps with backtracking line search, and returns the final
// point and its objective value. x0 is projected once up front to make sure
// it is feasible; when its objective value is infinite (outside the implicit
// domain, e.g. queueing-unstable) it is returned as is.
//
// It stops after the first accepted step that gains less than pgTolerance,
// and also when no step can gain that much. After projecting the first trial
// point cand = P(x − t·g) of an iteration, decrease = g·(x − cand) bounds
// f(x) − f(y) for every y on the projection arc at this or any shorter step:
// f is convex, so f(x) − f(y) ≤ g·(x − y), and g·(x − P(x − t·g)) does not
// grow as t shrinks. When decrease is below pgTolerance that one trial is
// evaluated, accepted if it improves, and the descent returns — any step the
// backtracking could still find would gain less than pgTolerance and end the
// descent too. With an exact projection (refineScheduling, and solveProbPi
// without cache) this is exact; with a cache, solveProbPi's projection
// repairs the global cache constraint only approximately, and there it is a
// heuristic.
func projectedGradient(obj func(x []float64) float64, grad func(x, g []float64), project func(x []float64), x0 []float64) ([]float64, float64) {
	n := len(x0)
	x := append([]float64(nil), x0...)
	project(x)
	fx := obj(x)
	if math.IsInf(fx, 1) {
		return x, fx
	}

	g := make([]float64, n)
	cand := make([]float64, n)
	step := float64(pgInitialStep)
	for iter := 0; iter < pgMaxIter; iter++ {
		grad(x, g)
		improved := false
		trial := step
		for bt := 0; bt < pgMaxBacktrack; bt++ {
			for i := range x {
				cand[i] = x[i] - trial*g[i]
			}
			project(cand)
			last := false
			if bt == 0 {
				var decrease float64
				for i := range x {
					decrease += g[i] * (x[i] - cand[i])
				}
				last = decrease < pgTolerance
			}
			fc := obj(cand)
			if fc < fx-1e-15 {
				copy(x, cand)
				fxPrev := fx
				fx = fc
				improved = true
				// Grow the step slightly for the next iteration if the first
				// trial succeeded, otherwise keep the reduced step.
				if bt == 0 {
					step = trial * 2
				} else {
					step = trial
				}
				if fxPrev-fx < pgTolerance {
					return x, fx
				}
				break
			}
			if last {
				return x, fx
			}
			trial *= pgStepShrink
			if trial < pgMinStep {
				break
			}
		}
		if !improved {
			return x, fx
		}
	}
	return x, fx
}

// clip returns x limited to [lo, hi].
func clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// projectCappedSimplex projects x onto the set
//
//	{ y : 0 <= y_i <= 1,  L <= sum_i y_i <= U }
//
// in place. It returns ErrInfeasible if the set is empty (L > len(x) or
// U < 0 or L > U). The projection is y_i = clip(x_i − θ, 0, 1), where θ is 0
// when the box clip already meets the sum bounds and otherwise solves
// S(θ) = U (the clip sums above U) or S(θ) = L (below L), with
// S(θ) = Σ clip(x_i − θ, 0, 1). S is piecewise linear and non-increasing,
// with breakpoints x_i − 1 and x_i, so θ is found exactly: sort x, walk the
// 2n breakpoints in order to the segment that brackets the target, and solve
// the segment's linear equation (W. Wang, C. Lu, "Projection onto the Capped
// Simplex", arXiv:1503.01002). There is no tolerance and no iteration
// cap, and nothing is allocated for files on at most 32 nodes.
func projectCappedSimplex(x []float64, l, u float64) error {
	if l > u || l > float64(len(x)) || u < 0 {
		return ErrInfeasible
	}
	var s0 float64
	for _, v := range x {
		s0 += clip(v, 0, 1)
	}
	var theta float64
	switch {
	case s0 > u:
		theta = cappedSimplexShift(x, u)
	case s0 < l:
		theta = cappedSimplexShift(x, l)
	}
	for i := range x {
		x[i] = clip(x[i]-theta, 0, 1)
	}
	return nil
}

// cappedSimplexShift returns θ with Σ clip(x_i − θ, 0, 1) = target, for
// 0 <= target <= len(x). It walks the breakpoints in increasing order — a
// coordinate leaves 1 at x_i − 1 and reaches 0 at x_i — keeping the sum's
// linear form ones + freeSum − free·θ on the current segment, until the sum
// at the segment's right end is at most target.
func cappedSimplexShift(x []float64, target float64) float64 {
	var buf [32]float64
	s := buf[:0]
	if len(x) > len(buf) {
		s = make([]float64, 0, len(x))
	}
	s = append(s, x...)
	slices.Sort(s)
	ones, free, freeSum := float64(len(s)), 0.0, 0.0
	lo, hi := 0, 0 // next coordinate to leave 1, next to reach 0
	for hi < len(s) {
		enter := lo < len(s) && s[lo]-1 <= s[hi]
		b := s[hi]
		if enter {
			b = s[lo] - 1
		}
		if ones+freeSum-free*b <= target {
			if free == 0 {
				return b
			}
			return (ones + freeSum - target) / free
		}
		if enter {
			ones--
			free++
			freeSum += s[lo]
			lo++
		} else {
			free--
			freeSum -= s[hi]
			hi++
		}
	}
	return s[len(s)-1]
}
