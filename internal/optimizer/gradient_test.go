package optimizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProjectCappedSimplexClipsToBox(t *testing.T) {
	// The sum bounds do not bind: the projection is the box clip.
	x := []float64{-1, 0.5, 2}
	if err := projectCappedSimplex(x, 0, 3); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("projectCappedSimplex = %v, want %v", x, want)
		}
	}
}

func TestProjectCappedSimplexAlreadyFeasible(t *testing.T) {
	x := []float64{0.2, 0.3, 0.1}
	orig := append([]float64(nil), x...)
	if err := projectCappedSimplex(x, 0, 3); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-orig[i]) > 1e-12 {
			t.Fatalf("feasible point should be unchanged: %v", x)
		}
	}
}

func TestProjectCappedSimplexReducesSum(t *testing.T) {
	x := []float64{0.9, 0.9, 0.9, 0.9}
	if err := projectCappedSimplex(x, 0, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumSlice(x)-2) > 1e-6 {
		t.Fatalf("sum = %v, want 2", sumSlice(x))
	}
	for _, v := range x {
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("coordinate out of box: %v", x)
		}
	}
}

func TestProjectCappedSimplexIncreasesSum(t *testing.T) {
	x := []float64{0.1, 0.0, 0.2}
	if err := projectCappedSimplex(x, 2, 3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumSlice(x)-2) > 1e-6 {
		t.Fatalf("sum = %v, want 2", sumSlice(x))
	}
}

func TestProjectCappedSimplexInfeasible(t *testing.T) {
	x := []float64{0.5, 0.5}
	if err := projectCappedSimplex(x, 3, 4); err == nil {
		t.Fatal("expected infeasible error when L > len(x)")
	}
	if err := projectCappedSimplex(x, 2, 1); err == nil {
		t.Fatal("expected infeasible error when L > U")
	}
	if err := projectCappedSimplex(x, -1, -0.5); err == nil {
		t.Fatal("expected infeasible error when U < 0")
	}
}

func TestProjectCappedSimplexIsProjection(t *testing.T) {
	// Property: the projection is feasible and no feasible point sampled at
	// random is closer to the original point.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
		}
		l := rng.Float64() * float64(n) / 2
		u := l + rng.Float64()*float64(n)/2
		if u > float64(n) {
			u = float64(n)
		}
		proj := append([]float64(nil), x...)
		if err := projectCappedSimplex(proj, l, u); err != nil {
			return false
		}
		s := sumSlice(proj)
		if s < l-1e-6 || s > u+1e-6 {
			return false
		}
		for _, v := range proj {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
		}
		distProj := dist2(x, proj)
		// Random feasible candidates must not beat the projection.
		for trial := 0; trial < 30; trial++ {
			cand := make([]float64, n)
			for i := range cand {
				cand[i] = rng.Float64()
			}
			// Rescale into the sum interval if possible.
			cs := sumSlice(cand)
			if cs > u && cs > 0 {
				for i := range cand {
					cand[i] *= u / cs
				}
			}
			if sumSlice(cand) < l {
				continue
			}
			if dist2(x, cand) < distProj-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// bisectProjection is the reference projection onto the capped simplex: it
// bisects the non-increasing sum Σ clip(x_i − θ, 0, 1) for the multiplier θ.
func bisectProjection(x []float64, l, u float64) {
	sumAt := func(theta float64) float64 {
		var s float64
		for _, v := range x {
			s += clip(v-theta, 0, 1)
		}
		return s
	}
	var span float64
	for _, v := range x {
		span = math.Max(span, math.Abs(v))
	}
	bisect := func(target, lo, hi float64) float64 {
		for iter := 0; iter < 200 && hi-lo > 1e-15*(1+math.Abs(hi)+math.Abs(lo)); iter++ {
			mid := (lo + hi) / 2
			if sumAt(mid) > target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
	var theta float64
	switch s0 := sumAt(0); {
	case s0 > u:
		theta = bisect(u, 0, span+1)
	case s0 < l:
		theta = bisect(l, -(span + 2), 0)
	}
	for i := range x {
		x[i] = clip(x[i]-theta, 0, 1)
	}
}

// TestProjectCappedSimplexMatchesBisection: the breakpoint projection agrees
// with bisection on random points, including fixed sums (L = U, the case
// refineScheduling uses), the open bounds L = 0 and U = n, and ties; and it
// allocates nothing.
func TestProjectCappedSimplexMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(9)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*5 - 2
		}
		if n > 1 && trial%3 == 0 {
			// Ties: repeated entries, and entries one apart, whose
			// breakpoints coincide.
			x[1] = x[0]
			if n > 2 {
				x[2] = x[0] + 1
			}
		}
		fn := float64(n)
		var l, u float64
		switch trial % 4 {
		case 0:
			l = rng.Float64() * fn
			u = l
		case 1:
			u = rng.Float64() * fn
		case 2:
			l = rng.Float64() * fn
			u = fn
		default:
			l = rng.Float64() * fn
			u = l + rng.Float64()*(fn-l)
		}
		got := append([]float64(nil), x...)
		if err := projectCappedSimplex(got, l, u); err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), x...)
		bisectProjection(want, l, u)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("x=%v L=%v U=%v: projection %v, bisection %v", x, l, u, got, want)
			}
		}
	}

	x := []float64{0.9, -0.4, 2.5, 0.3, 0.7, 1.1, 0.2}
	y := make([]float64, len(x))
	allocs := testing.AllocsPerRun(100, func() {
		copy(y, x)
		_ = projectCappedSimplex(y, 3, 3)
	})
	if allocs != 0 {
		t.Fatalf("projectCappedSimplex allocates %v times per call, want 0", allocs)
	}
}

func dist2(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// boxProject clips every coordinate to [0, 1].
func boxProject(x []float64) {
	for i := range x {
		x[i] = clip(x[i], 0, 1)
	}
}

func TestProjectedGradientQuadratic(t *testing.T) {
	// Minimise ||x - c||^2 over the box [0,1]^3: solution is clip(c).
	c := []float64{0.5, 2, -1}
	obj := func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - c[i]
			s += d * d
		}
		return s
	}
	grad := func(x []float64, g []float64) {
		for i := range x {
			g[i] = 2 * (x[i] - c[i])
		}
	}
	x, _ := projectedGradient(obj, grad, boxProject, []float64{0.1, 0.1, 0.1})
	want := []float64{0.5, 1, 0}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-4 {
			t.Fatalf("solution %v, want %v", x, want)
		}
	}
}

func TestProjectedGradientConstrainedQuadratic(t *testing.T) {
	// Minimise sum (x_i - 1)^2 subject to sum x_i <= 1, x in [0,1]^4.
	// Optimum puts 0.25 in every coordinate.
	obj := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += (v - 1) * (v - 1)
		}
		return s
	}
	grad := func(x []float64, g []float64) {
		for i := range x {
			g[i] = 2 * (x[i] - 1)
		}
	}
	project := func(x []float64) { _ = projectCappedSimplex(x, 0, 1) }
	x, _ := projectedGradient(obj, grad, project, []float64{0, 0, 0, 0})
	for _, v := range x {
		if math.Abs(v-0.25) > 1e-3 {
			t.Fatalf("solution %v, want 0.25 each", x)
		}
	}
}

func TestProjectedGradientInfeasibleStart(t *testing.T) {
	obj := func(x []float64) float64 { return math.Inf(1) }
	grads := 0
	grad := func(x []float64, g []float64) { grads++ }
	project := func(x []float64) {}
	_, value := projectedGradient(obj, grad, project, []float64{0})
	if !math.IsInf(value, 1) || grads != 0 {
		t.Fatalf("infeasible start should return immediately, got value %v after %d gradients", value, grads)
	}
}

// TestProjectedGradientStopsAtStationaryPoint: started at the optimum of a
// convex quadratic over the box, the descent sees that no step can gain
// pgTolerance and returns after evaluating one trial, instead of
// backtracking through pgMaxBacktrack rejected ones.
func TestProjectedGradientStopsAtStationaryPoint(t *testing.T) {
	c := []float64{2, -1, 0.5}
	evals := 0
	obj := func(x []float64) float64 {
		evals++
		var s float64
		for i := range x {
			d := x[i] - c[i]
			s += d * d
		}
		return s
	}
	grad := func(x []float64, g []float64) {
		for i := range x {
			g[i] = 2 * (x[i] - c[i])
		}
	}
	x, _ := projectedGradient(obj, grad, boxProject, []float64{1, 0, 0.5})
	if want := []float64{1, 0, 0.5}; dist2(x, want) != 0 {
		t.Fatalf("solution %v, want %v", x, want)
	}
	if evals > 2 {
		t.Fatalf("%d objective evaluations at a stationary point, want at most 2", evals)
	}
}
