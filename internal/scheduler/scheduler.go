// Package scheduler implements probabilistic request scheduling: given a
// file's per-node scheduling probabilities pi_{i,j} with sum_j pi_{i,j} equal
// to the number of chunks that must be fetched from storage, it selects that
// many distinct nodes per request such that the long-run fraction of requests
// touching node j equals pi_{i,j} exactly.
//
// The selection uses Madow's systematic sampling, which realises arbitrary
// inclusion probabilities summing to an integer with a single uniform draw.
//
// A caller that knows how much work each node already holds can refine the
// draw with RankByWork: candidates are ordered by expected completion and
// the draw survives as the tie-break.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Common errors.
var (
	ErrBadProbabilities = errors.New("scheduler: probabilities must lie in [0,1]")
	ErrNonIntegralSum   = errors.New("scheduler: probabilities must sum to an integer")
)

const sumTolerance = 1e-6

// Picker selects sets of distinct node indices according to fixed marginal
// inclusion probabilities. It is safe for concurrent use only with external
// synchronisation of the rand source.
type Picker struct {
	probs   []float64
	nodes   []int // node indices with non-zero probability
	cum     []float64
	setSize int
}

// NewPicker builds a Picker from the probability vector pi over node indices
// 0..len(pi)-1. The probabilities must lie in [0,1] and sum to an integer
// (the number of distinct nodes selected per request). A zero-sum vector is
// allowed and yields an empty selection.
func NewPicker(pi []float64) (*Picker, error) {
	var sum float64
	nodes := make([]int, 0, len(pi))
	probs := make([]float64, 0, len(pi))
	for j, p := range pi {
		if p < -1e-12 || p > 1+1e-9 {
			return nil, fmt.Errorf("%w: pi[%d]=%v", ErrBadProbabilities, j, p)
		}
		if p <= 0 {
			continue
		}
		if p > 1 {
			p = 1
		}
		nodes = append(nodes, j)
		probs = append(probs, p)
		sum += p
	}
	rounded := math.Round(sum)
	if math.Abs(sum-rounded) > sumTolerance {
		return nil, fmt.Errorf("%w: sum=%v", ErrNonIntegralSum, sum)
	}
	setSize := int(rounded)
	cum := make([]float64, len(probs)+1)
	for i, p := range probs {
		cum[i+1] = cum[i] + p
	}
	// Normalise accumulated rounding error so the final boundary is exact.
	if setSize > 0 {
		cum[len(cum)-1] = float64(setSize)
	}
	return &Picker{probs: probs, nodes: nodes, cum: cum, setSize: setSize}, nil
}

// Pick selects setSize distinct node indices with the configured marginal
// probabilities using Madow's systematic sampling.
func (p *Picker) Pick(rng *rand.Rand) []int {
	if p.setSize == 0 {
		return nil
	}
	return p.PickFrom(rng.Float64())
}

// PickFrom is Pick with the single uniform draw u in [0,1) supplied by the
// caller. Madow's sampling consumes exactly one uniform variate, so callers
// on concurrent paths can use per-goroutine randomness without funnelling
// through a shared, locked rand.Rand. The Picker itself is immutable after
// construction and safe for concurrent PickFrom calls.
func (p *Picker) PickFrom(u float64) []int {
	if p.setSize == 0 {
		return nil
	}
	if u < 0 {
		u = 0
	} else if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return p.AppendPickFrom(make([]int, 0, p.setSize), u)
}

// AppendPickFrom is PickFrom appending onto dst — allocation-free when
// dst has capacity, which is how the controller's pooled read scratch
// draws node sets on the hot path.
func (p *Picker) AppendPickFrom(dst []int, u float64) []int {
	if p.setSize == 0 {
		return dst
	}
	if u < 0 {
		u = 0
	} else if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	for t := 0; t < p.setSize; t++ {
		target := u + float64(t)
		// Find the interval (cum[i], cum[i+1]] containing target.
		i := sort.SearchFloat64s(p.cum, target)
		if i == 0 {
			i = 1
		}
		if i > len(p.nodes) {
			i = len(p.nodes)
		}
		dst = append(dst, p.nodes[i-1])
	}
	return dst
}

// Excluding derives a picker that never selects nodes for which alive
// returns false: the down nodes' probability mass is redistributed over the
// surviving nodes proportionally (water-filling, so no marginal exceeds 1)
// and the set size shrinks to the number of survivors when fewer remain
// than the original draw needed. The receiver is not modified.
//
// This is the degraded-mode scheduling rule: until the optimizer has
// re-planned against the reduced membership, requests keep the planned
// relative preferences among live nodes but never target a down one.
func (p *Picker) Excluding(alive func(node int) bool) *Picker {
	nodes := make([]int, 0, len(p.nodes))
	probs := make([]float64, 0, len(p.probs))
	var aliveMass float64
	excluded := false
	for i, node := range p.nodes {
		if !alive(node) {
			excluded = true
			continue
		}
		nodes = append(nodes, node)
		probs = append(probs, p.probs[i])
		aliveMass += p.probs[i]
	}
	if !excluded {
		return p
	}
	setSize := p.setSize
	if setSize > len(nodes) {
		setSize = len(nodes)
	}
	if setSize == 0 || aliveMass <= 0 {
		return &Picker{}
	}
	// Water-filling renormalisation: scale surviving probabilities so they
	// sum to setSize, capping at 1 and redistributing the excess over the
	// uncapped nodes until stable. Terminates because each round caps at
	// least one more node, and setSize <= len(nodes) guarantees feasibility.
	scaled := append([]float64(nil), probs...)
	capped := make([]bool, len(scaled))
	remaining := float64(setSize)
	freeMass := aliveMass
	for {
		grew := false
		for i := range scaled {
			if capped[i] {
				continue
			}
			v := probs[i] * remaining / freeMass
			if v >= 1 {
				scaled[i] = 1
				capped[i] = true
				remaining -= 1
				freeMass -= probs[i]
				grew = true
			} else {
				scaled[i] = v
			}
		}
		if !grew || remaining <= 0 || freeMass <= 0 {
			break
		}
	}
	cum := make([]float64, len(scaled)+1)
	for i, v := range scaled {
		cum[i+1] = cum[i] + v
	}
	cum[len(cum)-1] = float64(setSize)
	return &Picker{probs: scaled, nodes: nodes, cum: cum, setSize: setSize}
}

// Marginals returns the effective inclusion probability of every node index
// up to the given length, for verification and testing.
func (p *Picker) Marginals(numNodes int) []float64 {
	m := make([]float64, numNodes)
	for i, node := range p.nodes {
		if node < numNodes {
			m[node] = p.probs[i]
		}
	}
	return m
}

// Assignment is a full scheduling policy: one probability vector per file.
type Assignment struct {
	pickers []*Picker
}

// NewAssignment builds per-file pickers from the probability matrix
// pi[file][node].
func NewAssignment(pi [][]float64) (*Assignment, error) {
	pickers := make([]*Picker, len(pi))
	for i := range pi {
		p, err := NewPicker(pi[i])
		if err != nil {
			return nil, fmt.Errorf("file %d: %w", i, err)
		}
		pickers[i] = p
	}
	return &Assignment{pickers: pickers}, nil
}

// Pick selects the storage nodes to contact for one request of the given
// file.
func (a *Assignment) Pick(file int, rng *rand.Rand) []int {
	return a.pickers[file].Pick(rng)
}

// PickFrom selects the storage nodes for one request of the given file from
// a caller-supplied uniform draw; see Picker.PickFrom.
func (a *Assignment) PickFrom(file int, u float64) []int {
	return a.pickers[file].PickFrom(u)
}

// AppendPickFrom selects the storage nodes for one request of the given
// file, appending onto dst; see Picker.AppendPickFrom.
func (a *Assignment) AppendPickFrom(dst []int, file int, u float64) []int {
	return a.pickers[file].AppendPickFrom(dst, u)
}

// Excluding derives an assignment whose per-file pickers never select nodes
// for which alive returns false; see Picker.Excluding. Pickers without any
// excluded node are shared with the receiver (immutable), so deriving a
// degraded assignment on a membership change is cheap.
func (a *Assignment) Excluding(alive func(node int) bool) *Assignment {
	pickers := make([]*Picker, len(a.pickers))
	for i, p := range a.pickers {
		pickers[i] = p.Excluding(alive)
	}
	return &Assignment{pickers: pickers}
}

// NumFiles returns the number of files covered by the assignment.
func (a *Assignment) NumFiles() int { return len(a.pickers) }

// ExpectedWork is the ranking key of queue-aware chunk scheduling: the
// expected completion time of one more chunk request sent to a node that
// already holds inflight outstanding requests and serves one in mean seconds
// on average, (inflight+1)·E[S].
func ExpectedWork(inflight int64, mean float64) float64 {
	return float64(inflight+1) * mean
}

// RankByWork stably sorts items by ascending work, where work[i] belongs to
// items[i]; both slices are permuted together. Equal work keeps the incoming
// order, so a caller that passes the Madow draw first and the rest of the
// placement after it keeps π as the tie-break: with no backlog and equal
// service means the order is the draw itself.
//
// It is an insertion sort: a file has at most n candidates (a handful), the
// input is already sorted whenever the cluster is idle, and nothing is
// allocated.
func RankByWork[T any](items []T, work []float64) {
	for i := 1; i < len(items); i++ {
		it, w := items[i], work[i]
		j := i
		for ; j > 0 && w < work[j-1]; j-- {
			items[j], work[j] = items[j-1], work[j-1]
		}
		items[j], work[j] = it, w
	}
}
