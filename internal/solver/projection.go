// Package solver provides the small convex-optimization toolkit the cache
// optimizer needs in place of the commercial solver (MOSEK) used in the
// paper: Euclidean projections onto the constraint sets of Prob Π and a
// projected gradient descent with backtracking line search.
package solver

import (
	"errors"
	"math"
)

// ErrInfeasible is returned when a projection target set is empty.
var ErrInfeasible = errors.New("solver: infeasible constraint set")

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

// ProjectBox projects x onto the box [lo, hi]^n in place.
func ProjectBox(x []float64, lo, hi float64) {
	for i := range x {
		x[i] = clip(x[i], lo, hi)
	}
}

// ProjectCappedSimplex projects x onto the set
//
//	{ y : 0 <= y_i <= 1,  L <= sum_i y_i <= U }
//
// in place. It returns ErrInfeasible if the set is empty (L > len(x) or
// U < 0 or L > U). The projection is computed by bisecting on the Lagrange
// multiplier theta of the sum constraint: y_i = clip(x_i - theta, 0, 1).
func ProjectCappedSimplex(x []float64, l, u float64) error {
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
	s0 := sumAt(0)
	switch {
	case s0 >= l && s0 <= u:
		ProjectBox(x, 0, 1)
		return nil
	case s0 > u:
		// Need theta > 0 such that sumAt(theta) == u.
		theta := bisectDecreasing(sumAt, u, 0, maxAbs(x)+1)
		for i := range x {
			x[i] = clip(x[i]-theta, 0, 1)
		}
		return nil
	default:
		// s0 < l: need theta < 0 such that sumAt(theta) == l.
		theta := bisectDecreasing(sumAt, l, -(maxAbs(x) + 2), 0)
		for i := range x {
			x[i] = clip(x[i]-theta, 0, 1)
		}
		return nil
	}
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

// Projection is a function that maps a point onto a convex set in place.
type Projection func(x []float64)
