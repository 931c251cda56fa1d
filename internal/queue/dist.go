// Package queue provides service-time distributions and the M/G/1
// (Pollaczek-Khinchine) queueing formulas that underlie Sprout's latency
// bound: for each storage node the paper needs the first three moments of
// the chunk service time and, from them, the mean and variance of the
// response time Q_j at request intensity rho_j (eqs. (3)-(4)).
package queue

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Dist is a service-time distribution. Implementations must provide the
// first three raw moments (used by the analytical model) and a sampler (used
// by the discrete-event simulator and the object-store substrate).
type Dist interface {
	// Mean returns E[X], the mean service time in seconds.
	Mean() float64
	// Moment2 returns E[X^2].
	Moment2() float64
	// Moment3 returns E[X^3].
	Moment3() float64
	// Sample draws one service time using the supplied random source.
	Sample(rng *rand.Rand) float64
}

// Variance returns Var[X] = E[X^2] - E[X]^2 for any distribution.
func Variance(d Dist) float64 {
	m := d.Mean()
	return d.Moment2() - m*m
}

// Exponential is an exponential service-time distribution with the given
// rate mu (mean 1/mu).
type Exponential struct {
	Rate float64
}

var _ Dist = Exponential{}

// NewExponential returns an exponential distribution with rate mu. It panics
// if mu <= 0.
func NewExponential(mu float64) Exponential {
	if mu <= 0 {
		panic(fmt.Sprintf("queue: exponential rate must be positive, got %v", mu))
	}
	return Exponential{Rate: mu}
}

func (e Exponential) Mean() float64    { return 1 / e.Rate }
func (e Exponential) Moment2() float64 { return 2 / (e.Rate * e.Rate) }
func (e Exponential) Moment3() float64 { return 6 / (e.Rate * e.Rate * e.Rate) }

func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / e.Rate
}

// Deterministic is a constant service time.
type Deterministic struct {
	Value float64
}

var _ Dist = Deterministic{}

func (d Deterministic) Mean() float64               { return d.Value }
func (d Deterministic) Moment2() float64            { return d.Value * d.Value }
func (d Deterministic) Moment3() float64            { return d.Value * d.Value * d.Value }
func (d Deterministic) Sample(_ *rand.Rand) float64 { return d.Value }

// ShiftedExponential is a constant Shift plus an exponential tail with the
// given Rate. It is a common model for disk reads: a fixed seek/transfer
// component plus a random queue-less tail.
type ShiftedExponential struct {
	Shift float64
	Rate  float64
}

var _ Dist = ShiftedExponential{}

func (s ShiftedExponential) Mean() float64 { return s.Shift + 1/s.Rate }

func (s ShiftedExponential) Moment2() float64 {
	m1 := 1 / s.Rate
	m2 := 2 / (s.Rate * s.Rate)
	return s.Shift*s.Shift + 2*s.Shift*m1 + m2
}

func (s ShiftedExponential) Moment3() float64 {
	m1 := 1 / s.Rate
	m2 := 2 / (s.Rate * s.Rate)
	m3 := 6 / (s.Rate * s.Rate * s.Rate)
	return s.Shift*s.Shift*s.Shift + 3*s.Shift*s.Shift*m1 + 3*s.Shift*m2 + m3
}

func (s ShiftedExponential) Sample(rng *rand.Rand) float64 {
	return s.Shift + rng.ExpFloat64()/s.Rate
}

// Gamma is a gamma-distributed service time with shape Alpha and rate Beta
// (mean Alpha/Beta). It is used to calibrate distributions to a measured
// mean and variance (Table IV of the paper) because a gamma distribution is
// fully determined by those two values and has closed-form higher moments.
type Gamma struct {
	Alpha float64 // shape
	Beta  float64 // rate
}

var _ Dist = Gamma{}

// ErrInvalidMoments is returned when a measured mean/variance pair cannot be
// represented (non-positive values).
var ErrInvalidMoments = errors.New("queue: mean and variance must be positive")

// GammaFromMeanVar returns the gamma distribution with the given mean and
// variance, the calibration used for the Ceph-measured service times.
func GammaFromMeanVar(mean, variance float64) (Gamma, error) {
	if mean <= 0 || variance <= 0 {
		return Gamma{}, ErrInvalidMoments
	}
	alpha := mean * mean / variance
	beta := mean / variance
	return Gamma{Alpha: alpha, Beta: beta}, nil
}

func (g Gamma) Mean() float64 { return g.Alpha / g.Beta }

func (g Gamma) Moment2() float64 { return g.Alpha * (g.Alpha + 1) / (g.Beta * g.Beta) }

func (g Gamma) Moment3() float64 {
	return g.Alpha * (g.Alpha + 1) * (g.Alpha + 2) / (g.Beta * g.Beta * g.Beta)
}

// Sample draws from the gamma distribution using Marsaglia-Tsang for
// alpha >= 1 and the boost transform for alpha < 1.
func (g Gamma) Sample(rng *rand.Rand) float64 {
	alpha := g.Alpha
	if alpha < 1 {
		// Use the transformation X(alpha) = X(alpha+1) * U^(1/alpha).
		u := rng.Float64()
		return Gamma{Alpha: alpha + 1, Beta: g.Beta}.Sample(rng) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v / g.Beta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v / g.Beta
		}
	}
}

// Scaled wraps a distribution and multiplies every sample and moment by a
// constant factor. It is used to derive service times for different chunk
// sizes from a single calibrated base distribution.
type Scaled struct {
	Base   Dist
	Factor float64
}

var _ Dist = Scaled{}

func (s Scaled) Mean() float64    { return s.Factor * s.Base.Mean() }
func (s Scaled) Moment2() float64 { return s.Factor * s.Factor * s.Base.Moment2() }
func (s Scaled) Moment3() float64 {
	return s.Factor * s.Factor * s.Factor * s.Base.Moment3()
}
func (s Scaled) Sample(rng *rand.Rand) float64 { return s.Factor * s.Base.Sample(rng) }
