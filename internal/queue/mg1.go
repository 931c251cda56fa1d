package queue

import (
	"errors"
	"fmt"
)

// NodeStats captures the service-time statistics of a storage node that the
// latency bound needs: service rate mu = 1/E[X], variance sigma^2, the second
// raw moment Gamma^2 = E[X^2] and the third raw moment GammaHat^3 = E[X^3].
// The naming follows the paper's notation.
type NodeStats struct {
	Mu        float64 // service rate, 1/E[X]
	Sigma2    float64 // Var[X]
	Gamma2    float64 // E[X^2]
	GammaHat3 float64 // E[X^3]
}

// ErrUnstable is returned when a node's request intensity rho = Lambda/mu is
// at or above 1, i.e. the M/G/1 queue has no steady state.
var ErrUnstable = errors.New("queue: request intensity rho >= 1, queue unstable")

// StatsFromDist derives NodeStats from a service-time distribution.
func StatsFromDist(d Dist) NodeStats {
	m := d.Mean()
	return NodeStats{
		Mu:        1 / m,
		Sigma2:    Variance(d),
		Gamma2:    d.Moment2(),
		GammaHat3: d.Moment3(),
	}
}

// ResponseMoments holds the mean and variance of the response time Q_j of an
// M/G/1 queue at a given chunk arrival rate, computed from the
// Pollaczek-Khinchine formulas used by the paper (eqs. (3)-(4)).
type ResponseMoments struct {
	Mean     float64 // E[Q_j]
	Variance float64 // Var[Q_j]
	Rho      float64 // request intensity Lambda_j / mu_j
}

// Response computes E[Q] and Var[Q] for the node when chunk requests arrive
// at rate lambda (a Poisson process). It returns ErrUnstable when rho >= 1.
//
//	E[Q]   = 1/mu + lambda*Gamma^2 / (2(1-rho))
//	Var[Q] = sigma^2 + lambda*GammaHat^3/(3(1-rho)) + lambda^2*Gamma^4/(4(1-rho)^2)
func (s NodeStats) Response(lambda float64) (ResponseMoments, error) {
	if lambda < 0 {
		return ResponseMoments{}, fmt.Errorf("queue: negative arrival rate %v", lambda)
	}
	rho := lambda / s.Mu
	if rho >= 1 {
		return ResponseMoments{Rho: rho}, ErrUnstable
	}
	mean := 1/s.Mu + lambda*s.Gamma2/(2*(1-rho))
	variance := s.Sigma2 +
		lambda*s.GammaHat3/(3*(1-rho)) +
		lambda*lambda*s.Gamma2*s.Gamma2/(4*(1-rho)*(1-rho))
	return ResponseMoments{Mean: mean, Variance: variance, Rho: rho}, nil
}
