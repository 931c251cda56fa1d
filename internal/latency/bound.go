// Package latency implements the closed-form upper bound on mean file-access
// latency under probabilistic scheduling with functional caching (Lemma 1 of
// the paper) and the weighted-average objective of the cache-optimization
// problem (eq. (5)).
//
// Given per-node response-time moments E[Q_j], Var[Q_j] (from
// internal/queue) and per-file scheduling probabilities pi_{i,j}, the bound
// for file i is
//
//	U_i = min_{z >= 0}  z + sum_j (pi_{i,j}/2) * [ (E[Q_j]-z) + sqrt((E[Q_j]-z)^2 + Var[Q_j]) ]
//
// which the package minimises over z with a derivative bisection (the inner
// function is convex in z).
package latency

import (
	"errors"
	"fmt"
	"math"

	"sprout/internal/queue"
)

// Node describes one storage node as the bound sees it: its service-time
// statistics and the aggregate chunk arrival rate currently routed to it.
type Node struct {
	Stats  queue.NodeStats
	Lambda float64 // aggregate chunk arrival rate Lambda_j
}

// ErrUnstableNode wraps queue.ErrUnstable with the node index for context.
var ErrUnstableNode = errors.New("latency: node unstable")

// NodeMoments computes E[Q_j] and Var[Q_j] for every node. It returns an
// error naming the first unstable node, if any.
func NodeMoments(nodes []Node) ([]queue.ResponseMoments, error) {
	out := make([]queue.ResponseMoments, len(nodes))
	for j, n := range nodes {
		m, err := n.Stats.Response(n.Lambda)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d (rho=%.4f): %v", ErrUnstableNode, j, m.Rho, err)
		}
		out[j] = m
	}
	return out, nil
}

// boundAt evaluates the inner expression of the bound at a fixed z.
func boundAt(z float64, pi []float64, moments []queue.ResponseMoments) float64 {
	sum := z
	for j, p := range pi {
		if p <= 0 {
			continue
		}
		diff := moments[j].Mean - z
		sum += p / 2 * (diff + math.Sqrt(diff*diff+moments[j].Variance))
	}
	return sum
}

// boundDerivative evaluates d/dz of the inner expression.
func boundDerivative(z float64, pi []float64, moments []queue.ResponseMoments) float64 {
	d := 1.0
	for j, p := range pi {
		if p <= 0 {
			continue
		}
		diff := moments[j].Mean - z
		denom := math.Sqrt(diff*diff + moments[j].Variance)
		if denom == 0 {
			d += p / 2 * (-1)
			continue
		}
		d += p / 2 * (-1 - diff/denom)
	}
	return d
}

// FileBound computes U_i and the minimising z for a single file, given the
// file's scheduling probabilities pi (indexed by node) and the per-node
// response moments. Probabilities for nodes that do not host the file must
// be zero. The minimisation respects the paper's z >= 0 constraint so the
// bound remains valid when a file is fully cached (sum_j pi = 0 gives U = 0).
func FileBound(pi []float64, moments []queue.ResponseMoments) (bound, zOpt float64) {
	if len(pi) != len(moments) {
		panic(fmt.Sprintf("latency: pi length %d != moments length %d", len(pi), len(moments)))
	}
	total := 0.0
	maxMean := 0.0
	for j, p := range pi {
		if p < 0 {
			panic(fmt.Sprintf("latency: negative probability %v at node %d", p, j))
		}
		total += p
		if p > 0 && moments[j].Mean > maxMean {
			maxMean = moments[j].Mean
		}
	}
	if total == 0 {
		// File served entirely from cache: latency bound is zero.
		return 0, 0
	}
	if maxMean == 0 {
		// Every contacted node answers in zero time (zero-mean service, so
		// zero variance too): the bound is zero at z = 0. Without this case
		// the bracket expansion below would double hi = 0 forever.
		return 0, 0
	}

	// The objective is convex in z; its derivative is increasing. At z=0 the
	// derivative may already be >= 0 (then z*=0); otherwise bisect on an
	// interval whose upper end has positive derivative.
	lo, hi := 0.0, maxMean
	if boundDerivative(lo, pi, moments) >= 0 {
		return boundAt(0, pi, moments), 0
	}
	for boundDerivative(hi, pi, moments) < 0 {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for iter := 0; iter < 100 && hi-lo > 1e-12*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if boundDerivative(mid, pi, moments) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	z := (lo + hi) / 2
	return boundAt(z, pi, moments), z
}

// Objective computes the arrival-rate-weighted mean latency bound of eq. (5):
// sum_i (lambda_i / lambda_total) * U_i. pi[i][j] is the probability that a
// request for file i reads a chunk from node j. lambdas[i] is the file's
// request arrival rate.
func Objective(pi [][]float64, lambdas []float64, moments []queue.ResponseMoments) float64 {
	if len(pi) != len(lambdas) {
		panic(fmt.Sprintf("latency: pi files %d != lambdas %d", len(pi), len(lambdas)))
	}
	var totalRate float64
	for _, l := range lambdas {
		totalRate += l
	}
	if totalRate == 0 {
		return 0
	}
	var obj float64
	for i := range pi {
		if lambdas[i] == 0 {
			continue
		}
		b, _ := FileBound(pi[i], moments)
		obj += lambdas[i] / totalRate * b
	}
	return obj
}

// NodeLoads aggregates the chunk arrival rate at each node implied by the
// scheduling probabilities: Lambda_j = sum_i lambda_i * pi_{i,j}.
func NodeLoads(pi [][]float64, lambdas []float64, numNodes int) []float64 {
	loads := make([]float64, numNodes)
	for i := range pi {
		for j, p := range pi[i] {
			loads[j] += lambdas[i] * p
		}
	}
	return loads
}

// EvaluateAssignment is a convenience helper that, given node service stats,
// file arrival rates and scheduling probabilities, computes node loads,
// response moments and the weighted latency bound in one call. It returns an
// error if any node would be unstable.
func EvaluateAssignment(stats []queue.NodeStats, lambdas []float64, pi [][]float64) (float64, []queue.ResponseMoments, error) {
	loads := NodeLoads(pi, lambdas, len(stats))
	nodes := make([]Node, len(stats))
	for j := range stats {
		nodes[j] = Node{Stats: stats[j], Lambda: loads[j]}
	}
	moments, err := NodeMoments(nodes)
	if err != nil {
		return math.Inf(1), nil, err
	}
	return Objective(pi, lambdas, moments), moments, nil
}
