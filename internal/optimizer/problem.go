// Package optimizer implements the cache-content optimization of the paper:
// the joint choice of functional-cache allocation d_i, probabilistic
// scheduling probabilities pi_{i,j} and auxiliary variables z_i that
// minimises the weighted latency bound (eqs. (5)-(11)), solved with the
// alternating heuristic of Algorithm 1 (Prob Z / Prob Π plus an
// integer-rounding inner loop). It also provides the baselines the paper
// compares against: no caching, exact (copy) caching, whole-file caching and
// a greedy marginal-benefit heuristic.
package optimizer

import (
	"errors"
	"fmt"
	"math"

	"sprout/internal/cluster"
	"sprout/internal/queue"
)

// FileSpec describes one file as the optimizer sees it.
type FileSpec struct {
	K      int     // chunks needed to reconstruct
	Nodes  []int   // indices (into Problem.Nodes) of the storage nodes holding chunks
	Lambda float64 // request arrival rate
}

// Problem is one time-bin's cache-optimization instance.
type Problem struct {
	Nodes         []queue.NodeStats
	Files         []FileSpec
	CacheCapacity int // capacity in chunks

	// StabilityMargin epsilon treats any node with rho >= 1-epsilon as
	// infeasible. Zero selects a small default.
	StabilityMargin float64
}

// Validation errors.
var (
	ErrNoNodes    = errors.New("optimizer: no nodes")
	ErrNoFiles    = errors.New("optimizer: no files")
	ErrBadFile    = errors.New("optimizer: invalid file spec")
	ErrBadCache   = errors.New("optimizer: negative cache capacity")
	ErrInfeasible = errors.New("optimizer: no feasible (stable) configuration found")
)

// Validate checks the problem description.
func (p *Problem) Validate() error {
	if len(p.Nodes) == 0 {
		return ErrNoNodes
	}
	if len(p.Files) == 0 {
		return ErrNoFiles
	}
	if p.CacheCapacity < 0 {
		return ErrBadCache
	}
	for i, f := range p.Files {
		if f.K < 1 {
			return fmt.Errorf("%w: file %d has k=%d", ErrBadFile, i, f.K)
		}
		if len(f.Nodes) < f.K {
			return fmt.Errorf("%w: file %d has %d nodes for k=%d", ErrBadFile, i, len(f.Nodes), f.K)
		}
		if f.Lambda < 0 {
			return fmt.Errorf("%w: file %d has negative arrival rate", ErrBadFile, i)
		}
		seen := make(map[int]bool, len(f.Nodes))
		for _, n := range f.Nodes {
			if n < 0 || n >= len(p.Nodes) {
				return fmt.Errorf("%w: file %d references node %d", ErrBadFile, i, n)
			}
			if seen[n] {
				return fmt.Errorf("%w: file %d places two chunks on node %d", ErrBadFile, i, n)
			}
			seen[n] = true
		}
	}
	return nil
}

func (p *Problem) stabilityMargin() float64 {
	if p.StabilityMargin <= 0 || p.StabilityMargin >= 1 {
		return 1e-3
	}
	return p.StabilityMargin
}

// totalLambda returns the aggregate file request rate.
func (p *Problem) totalLambda() float64 {
	var s float64
	for _, f := range p.Files {
		s += f.Lambda
	}
	return s
}

// totalK returns the total number of chunks that would be read with no cache.
func (p *Problem) totalK() int {
	var s int
	for _, f := range p.Files {
		s += f.K
	}
	return s
}

// FromCluster converts a cluster description into an optimizer problem. The
// node indices in file specs refer to positions in c.Nodes.
func FromCluster(c *cluster.Cluster, cacheCapacity int) (*Problem, error) {
	return FromClusterExcluding(c, cacheCapacity, nil)
}

// FromClusterExcluding converts a cluster description into an optimizer
// problem with the given node positions treated as down: down nodes are
// removed from every file's candidate set, so the plan's scheduling
// probabilities place no load on them. A file left with fewer than k live
// nodes keeps its full placement (the problem would otherwise be
// structurally infeasible); such files can only be served with cache help
// and the read plane's failover handles them.
func FromClusterExcluding(c *cluster.Cluster, cacheCapacity int, down map[int]bool) (*Problem, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	idx := c.NodeIndex()
	files := make([]FileSpec, len(c.Files))
	for i, f := range c.Files {
		nodes := make([]int, 0, len(f.Placement))
		for _, id := range f.Placement {
			if pos := idx[id]; !down[pos] {
				nodes = append(nodes, pos)
			}
		}
		if len(nodes) < f.K {
			nodes = nodes[:0]
			for _, id := range f.Placement {
				nodes = append(nodes, idx[id])
			}
		}
		files[i] = FileSpec{K: f.K, Nodes: nodes, Lambda: f.Lambda}
	}
	return &Problem{
		Nodes:         c.NodeStats(),
		Files:         files,
		CacheCapacity: cacheCapacity,
	}, nil
}

// layout maps the flattened optimization vector to (file, node) pairs: file
// i owns entries offsets[i] .. offsets[i+1]-1, one per node in Files[i].Nodes.
type layout struct {
	offsets []int
	size    int
}

func newLayout(files []FileSpec) layout {
	offsets := make([]int, len(files)+1)
	for i, f := range files {
		offsets[i+1] = offsets[i] + len(f.Nodes)
	}
	return layout{offsets: offsets, size: offsets[len(files)]}
}

func (l layout) fileSlice(x []float64, i int) []float64 {
	return x[l.offsets[i]:l.offsets[i+1]]
}

// toMatrix expands a flattened vector into the dense pi[file][node] matrix.
func (p *Problem) toMatrix(l layout, x []float64) [][]float64 {
	pi := make([][]float64, len(p.Files))
	for i, f := range p.Files {
		row := make([]float64, len(p.Nodes))
		xs := l.fileSlice(x, i)
		for j, node := range f.Nodes {
			row[node] = xs[j]
		}
		pi[i] = row
	}
	return pi
}

// Plan is the optimizer's output for one time bin.
type Plan struct {
	// D is the number of functional cache chunks allocated per file.
	D []int
	// Pi is the scheduling probability matrix pi[file][node].
	Pi [][]float64
	// Z holds the optimal auxiliary variables of the latency bound.
	Z []float64
	// Objective is the achieved weighted latency bound (seconds).
	Objective float64
	// History records the objective after every outer iteration of
	// Algorithm 1 (used to reproduce the convergence figure).
	History []float64
	// Iterations is the number of outer iterations executed.
	Iterations int
}

// CacheUsed returns the total number of cache chunks the plan uses.
func (pl *Plan) CacheUsed() int {
	var s int
	for _, d := range pl.D {
		s += d
	}
	return s
}

// clampInt limits v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sumSlice adds up a float slice.
func sumSlice(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// isFiniteObjective reports whether the value is a usable objective.
func isFiniteObjective(v float64) bool {
	return !math.IsInf(v, 0) && !math.IsNaN(v)
}
