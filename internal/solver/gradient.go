package solver

import "math"

// Objective evaluates a point; it may return +Inf for points outside the
// implicit domain (e.g. queueing-unstable configurations).
type Objective func(x []float64) float64

// Gradient fills grad with the gradient of the objective at x.
type Gradient func(x []float64, grad []float64)

// PGOptions configures ProjectedGradient.
type PGOptions struct {
	MaxIter      int     // maximum gradient iterations (default 200)
	InitialStep  float64 // initial step size (default 1)
	StepShrink   float64 // backtracking factor in (0,1) (default 0.5)
	MinStep      float64 // smallest step before giving up (default 1e-12)
	Tolerance    float64 // stop when the objective improves by less than this (default 1e-9)
	MaxBacktrack int     // maximum backtracking steps per iteration (default 40)
}

func (o PGOptions) withDefaults() PGOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.InitialStep <= 0 {
		o.InitialStep = 1
	}
	if o.StepShrink <= 0 || o.StepShrink >= 1 {
		o.StepShrink = 0.5
	}
	if o.MinStep <= 0 {
		o.MinStep = 1e-12
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	if o.MaxBacktrack <= 0 {
		o.MaxBacktrack = 40
	}
	return o
}

// PGResult reports the outcome of a projected-gradient run.
type PGResult struct {
	X          []float64
	Value      float64
	Iterations int
	Converged  bool
}

// ProjectedGradient minimises obj over the convex set defined by project
// using gradient steps with backtracking line search. x0 must be feasible
// (project is applied once up front to make sure) and have a finite
// objective value.
func ProjectedGradient(obj Objective, grad Gradient, project Projection, x0 []float64, opts PGOptions) PGResult {
	opts = opts.withDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	project(x)
	fx := obj(x)

	g := make([]float64, n)
	cand := make([]float64, n)
	step := opts.InitialStep

	result := PGResult{X: x, Value: fx}
	if math.IsInf(fx, 1) {
		// Infeasible start: nothing sensible to do.
		return result
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		result.Iterations = iter + 1
		grad(x, g)
		improved := false
		trial := step
		for bt := 0; bt < opts.MaxBacktrack; bt++ {
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
				if fxPrev-fx < opts.Tolerance {
					result.X, result.Value, result.Converged = x, fx, true
					return result
				}
				break
			}
			trial *= opts.StepShrink
			if trial < opts.MinStep {
				break
			}
		}
		if !improved {
			result.X, result.Value, result.Converged = x, fx, true
			return result
		}
	}
	result.X, result.Value = x, fx
	return result
}
