package queue

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestExponentialMoments(t *testing.T) {
	e := NewExponential(2.0)
	if !approxEqual(e.Mean(), 0.5, 1e-12) {
		t.Fatalf("mean = %v", e.Mean())
	}
	if !approxEqual(e.Moment2(), 0.5, 1e-12) {
		t.Fatalf("m2 = %v", e.Moment2())
	}
	if !approxEqual(e.Moment3(), 0.75, 1e-12) {
		t.Fatalf("m3 = %v", e.Moment3())
	}
	if !approxEqual(Variance(e), 0.25, 1e-12) {
		t.Fatalf("var = %v", Variance(e))
	}
}

func TestExponentialInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive rate")
		}
	}()
	NewExponential(0)
}

func TestDeterministicMoments(t *testing.T) {
	d := Deterministic{Value: 3}
	if d.Mean() != 3 || d.Moment2() != 9 || d.Moment3() != 27 {
		t.Fatal("deterministic moments wrong")
	}
	if Variance(d) != 0 {
		t.Fatal("deterministic variance should be zero")
	}
	if d.Sample(nil) != 3 {
		t.Fatal("deterministic sample wrong")
	}
}

func TestShiftedExponentialMoments(t *testing.T) {
	s := ShiftedExponential{Shift: 1, Rate: 2}
	// Mean = 1 + 0.5 = 1.5
	if !approxEqual(s.Mean(), 1.5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Var must equal the exponential part's variance 1/rate^2 = 0.25.
	if !approxEqual(Variance(s), 0.25, 1e-12) {
		t.Fatalf("var = %v", Variance(s))
	}
}

func TestGammaFromMeanVar(t *testing.T) {
	g, err := GammaFromMeanVar(147.8462, 388.9872) // 16MB chunk from Table IV
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(g.Mean(), 147.8462, 1e-9) {
		t.Fatalf("mean = %v", g.Mean())
	}
	if !approxEqual(Variance(g), 388.9872, 1e-9) {
		t.Fatalf("var = %v", Variance(g))
	}
	if g.Moment3() <= g.Moment2()*g.Mean() {
		t.Fatal("third moment should exceed m2*m1 for a positive-variance distribution")
	}
}

func TestGammaFromMeanVarInvalid(t *testing.T) {
	if _, err := GammaFromMeanVar(-1, 1); err == nil {
		t.Fatal("expected error for negative mean")
	}
	if _, err := GammaFromMeanVar(1, 0); err == nil {
		t.Fatal("expected error for zero variance")
	}
}

func TestSamplersMatchMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]Dist{
		"exp":     NewExponential(0.1),
		"shifted": ShiftedExponential{Shift: 2, Rate: 0.5},
		"gamma":   Gamma{Alpha: 3, Beta: 0.2},
		"gamma<1": Gamma{Alpha: 0.5, Beta: 1},
	}
	const n = 200000
	for name, d := range dists {
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := d.Sample(rng)
			if x < 0 {
				t.Fatalf("%s: negative sample %v", name, x)
			}
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		m2 := sum2 / n
		if !approxEqual(mean, d.Mean(), 0.03) {
			t.Errorf("%s: sample mean %v vs analytic %v", name, mean, d.Mean())
		}
		if !approxEqual(m2, d.Moment2(), 0.06) {
			t.Errorf("%s: sample m2 %v vs analytic %v", name, m2, d.Moment2())
		}
	}
}

func TestScaled(t *testing.T) {
	base := NewExponential(1)
	s := Scaled{Base: base, Factor: 4}
	if !approxEqual(s.Mean(), 4, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if !approxEqual(s.Moment2(), 32, 1e-12) {
		t.Fatalf("m2 = %v", s.Moment2())
	}
	if !approxEqual(s.Moment3(), 384, 1e-12) {
		t.Fatalf("m3 = %v", s.Moment3())
	}
}

func TestStatsFromDistAndResponse(t *testing.T) {
	// For M/M/1 (exponential service), the mean response time has the simple
	// closed form 1/(mu - lambda); the PK formula must agree.
	mu, lambda := 0.1, 0.05
	stats := StatsFromDist(NewExponential(mu))
	resp, err := stats.Response(lambda)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (mu - lambda)
	if !approxEqual(resp.Mean, want, 1e-9) {
		t.Fatalf("M/M/1 mean response = %v, want %v", resp.Mean, want)
	}
	if resp.Rho != 0.5 {
		t.Fatalf("rho = %v, want 0.5", resp.Rho)
	}
}

func TestResponseUnstable(t *testing.T) {
	stats := StatsFromDist(NewExponential(1))
	if _, err := stats.Response(1.0); err == nil {
		t.Fatal("expected ErrUnstable at rho = 1")
	}
	if _, err := stats.Response(2.0); err == nil {
		t.Fatal("expected ErrUnstable at rho > 1")
	}
	if _, err := stats.Response(-1); err == nil {
		t.Fatal("expected error for negative arrival rate")
	}
}

func TestResponseMonotoneInLambda(t *testing.T) {
	// Both mean and variance of the response time must be nondecreasing in
	// the arrival rate for a stable queue.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := 0.05 + rng.Float64()
		stats := StatsFromDist(NewExponential(mu))
		l1 := rng.Float64() * mu * 0.9
		l2 := l1 + rng.Float64()*(mu*0.95-l1)
		r1, err1 := stats.Response(l1)
		r2, err2 := stats.Response(l2)
		if err1 != nil || err2 != nil {
			return true
		}
		return r2.Mean >= r1.Mean-1e-12 && r2.Variance >= r1.Variance-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
