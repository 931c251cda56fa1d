package optimizer

import "math"

// The convex-optimization toolkit Algorithm 1 needs in place of the
// commercial solver (MOSEK) used in the paper: Euclidean projection onto the
// per-file constraint sets of Prob Π and projected gradient descent with a
// backtracking line search, on a fixed step schedule.
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
// U < 0 or L > U). The projection is computed by bisecting on the Lagrange
// multiplier theta of the sum constraint: y_i = clip(x_i - theta, 0, 1).
func projectCappedSimplex(x []float64, l, u float64) error {
	n := float64(len(x))
	if l > u || l > n || u < 0 {
		return ErrInfeasible
	}
	if l < 0 {
		l = 0
	}
	if u > n {
		u = n
	}
	sumAt := func(theta float64) float64 {
		var s float64
		for _, v := range x {
			s += clip(v-theta, 0, 1)
		}
		return s
	}
	var theta float64
	switch s0 := sumAt(0); {
	case s0 >= l && s0 <= u:
		// The box projection already meets the sum bounds: theta = 0.
	case s0 > u:
		// Need theta > 0 such that sumAt(theta) == u.
		theta = bisectDecreasing(sumAt, u, 0, maxAbs(x)+1)
	default:
		// s0 < l: need theta < 0 such that sumAt(theta) == l.
		theta = bisectDecreasing(sumAt, l, -(maxAbs(x) + 2), 0)
	}
	for i := range x {
		x[i] = clip(x[i]-theta, 0, 1)
	}
	return nil
}

// bisectDecreasing finds theta in [lo, hi] such that f(theta) == target,
// assuming f is non-increasing in theta.
func bisectDecreasing(f func(float64) float64, target, lo, hi float64) float64 {
	for iter := 0; iter < 200 && hi-lo > 1e-12*(1+math.Abs(hi)+math.Abs(lo)); iter++ {
		mid := (lo + hi) / 2
		if f(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
