package optimizer

import (
	"math"

	"sprout/internal/latency"
	"sprout/internal/queue"
)

// evaluator caches per-problem quantities and computes the latency-bound
// objective and its gradient with respect to the flattened scheduling vector
// x (pi restricted to each file's hosting nodes), for a fixed vector z.
type evaluator struct {
	p      *Problem
	l      layout
	lambda []float64 // per-file arrival rates
	hatL   float64   // total arrival rate

	// scratch buffers reused across evaluations
	loads   []float64 // Lambda_j
	eq      []float64 // E[Q_j]
	vq      []float64 // Var[Q_j]
	deq     []float64 // dE[Q_j]/dLambda_j
	dvq     []float64 // dVar[Q_j]/dLambda_j
	wext    []float64 // externality weight W_j
	momentB []queue.ResponseMoments
}

func newEvaluator(p *Problem, l layout) *evaluator {
	e := &evaluator{
		p:      p,
		l:      l,
		lambda: make([]float64, len(p.Files)),
		hatL:   p.totalLambda(),
	}
	for i, f := range p.Files {
		e.lambda[i] = f.Lambda
	}
	m := len(p.Nodes)
	e.loads = make([]float64, m)
	e.eq = make([]float64, m)
	e.vq = make([]float64, m)
	e.deq = make([]float64, m)
	e.dvq = make([]float64, m)
	e.wext = make([]float64, m)
	e.momentB = make([]queue.ResponseMoments, m)
	return e
}

// nodeLoads recomputes Lambda_j for the current x. It returns false if any
// node would be unstable (rho >= 1-eps).
func (e *evaluator) nodeLoads(x []float64) bool {
	for j := range e.loads {
		e.loads[j] = 0
	}
	for i, f := range e.p.Files {
		if e.lambda[i] == 0 {
			continue
		}
		xs := e.l.fileSlice(x, i)
		for j, node := range f.Nodes {
			e.loads[node] += e.lambda[i] * xs[j]
		}
	}
	stable := true
	for j, s := range e.p.Nodes {
		rho := e.loads[j] / s.Mu
		if rho >= 1-stabilityMargin {
			stable = false
		}
	}
	return stable
}

// nodeMoments fills eq, vq (and the derivative caches) from the current
// loads. Must be called after nodeLoads returned true.
func (e *evaluator) nodeMoments() {
	for j, s := range e.p.Nodes {
		lam := e.loads[j]
		rho := lam / s.Mu
		om := 1 - rho
		e.eq[j] = 1/s.Mu + lam*s.Gamma2/(2*om)
		e.vq[j] = s.Sigma2 + lam*s.GammaHat3/(3*om) + lam*lam*s.Gamma2*s.Gamma2/(4*om*om)
		// d E[Q]/dLambda = Gamma^2 / (2 (1-rho)^2)
		e.deq[j] = s.Gamma2 / (2 * om * om)
		// d Var[Q]/dLambda = GammaHat^3/(3(1-rho)^2) + Lambda*Gamma^4/(2(1-rho)^3)
		e.dvq[j] = s.GammaHat3/(3*om*om) + lam*s.Gamma2*s.Gamma2/(2*om*om*om)
	}
}

// moments returns the node response moments for the current x, or false if
// unstable.
func (e *evaluator) moments(x []float64) ([]queue.ResponseMoments, bool) {
	if !e.nodeLoads(x) {
		return nil, false
	}
	e.nodeMoments()
	for j := range e.momentB {
		e.momentB[j] = queue.ResponseMoments{Mean: e.eq[j], Variance: e.vq[j], Rho: e.loads[j] / e.p.Nodes[j].Mu}
	}
	return e.momentB, true
}

// objective evaluates the weighted latency bound for fixed z. Returns +Inf
// for unstable configurations.
func (e *evaluator) objective(x []float64, z []float64) float64 {
	if e.hatL == 0 {
		return 0
	}
	if !e.nodeLoads(x) {
		return math.Inf(1)
	}
	e.nodeMoments()
	var obj float64
	for i, f := range e.p.Files {
		if e.lambda[i] == 0 {
			continue
		}
		w := e.lambda[i] / e.hatL
		obj += w * z[i]
		xs := e.l.fileSlice(x, i)
		for j, node := range f.Nodes {
			pij := xs[j]
			if pij <= 0 {
				continue
			}
			a := e.eq[node] - z[i]
			obj += w * pij / 2 * (a + math.Sqrt(a*a+e.vq[node]))
		}
	}
	return obj
}

// gradient fills grad with d objective / d x for fixed z. The caller must
// guarantee x is stable (objective finite); otherwise the gradient content
// is undefined.
func (e *evaluator) gradient(x []float64, z []float64, grad []float64) {
	if e.hatL == 0 {
		for i := range grad {
			grad[i] = 0
		}
		return
	}
	if !e.nodeLoads(x) {
		// Point the gradient "downhill" in load: push probabilities down so a
		// backtracking step can recover stability.
		for i := range grad {
			grad[i] = 1
		}
		return
	}
	e.nodeMoments()

	// Externality term: W_j = sum_i (lambda_i/hatL) * (pi_ij/2) *
	//   [ dE_j + (A_ij*dE_j + dV_j/2) / sqrt(A_ij^2 + V_j) ].
	for j := range e.wext {
		e.wext[j] = 0
	}
	for i, f := range e.p.Files {
		if e.lambda[i] == 0 {
			continue
		}
		w := e.lambda[i] / e.hatL
		xs := e.l.fileSlice(x, i)
		for j, node := range f.Nodes {
			pij := xs[j]
			if pij <= 0 {
				continue
			}
			a := e.eq[node] - z[i]
			root := math.Sqrt(a*a + e.vq[node])
			term := e.deq[node]
			if root > 0 {
				term += (a*e.deq[node] + e.dvq[node]/2) / root
			}
			e.wext[node] += w * pij / 2 * term
		}
	}

	for i, f := range e.p.Files {
		xs := e.l.fileSlice(x, i)
		gs := grad[e.l.offsets[i]:e.l.offsets[i+1]]
		w := e.lambda[i] / e.hatL
		for j, node := range f.Nodes {
			a := e.eq[node] - z[i]
			root := math.Sqrt(a*a + e.vq[node])
			direct := w / 2 * (a + root)
			gs[j] = direct + e.lambda[i]*e.wext[node]
			_ = xs
		}
	}
}

// optimalZ solves Prob Z: for fixed x it computes the per-file minimising
// z_i of the latency bound (a separable 1-D convex problem solved in
// internal/latency). It returns false when the configuration is unstable.
func (e *evaluator) optimalZ(x []float64, z []float64) bool {
	moments, ok := e.moments(x)
	if !ok {
		return false
	}
	dense := make([]float64, len(e.p.Nodes))
	for i, f := range e.p.Files {
		for j := range dense {
			dense[j] = 0
		}
		xs := e.l.fileSlice(x, i)
		for j, node := range f.Nodes {
			dense[node] = xs[j]
		}
		_, zi := latency.FileBound(dense, moments)
		z[i] = zi
	}
	return true
}
