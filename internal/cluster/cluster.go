// Package cluster models the storage-cluster configuration the optimizer and
// simulator operate on: a set of heterogeneous storage nodes with
// service-time distributions, a set of erasure-coded files with arrival
// rates, and the placement of each file's chunks on nodes.
//
// It also bakes in the exact configuration used in the paper's numerical
// section: 12 storage servers with the published service rates, r = 1000
// files of 100 MB using a (7,4) code, and the five-way arrival-rate split.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"

	"sprout/internal/queue"
)

// Node is a single storage server.
type Node struct {
	ID      int
	Name    string
	Service queue.Dist
}

// Stats returns the service-time statistics of the node.
func (n Node) Stats() queue.NodeStats { return queue.StatsFromDist(n.Service) }

// File is one erasure-coded file stored in the cluster.
type File struct {
	ID        int
	Name      string
	SizeBytes int64
	K         int   // data chunks needed to reconstruct
	N         int   // coded chunks placed on storage nodes
	Placement []int // node IDs hosting the N chunks, len == N, all distinct
	Lambda    float64
}

// ChunkSize returns the size of each chunk in bytes (ceil(size/k)).
func (f File) ChunkSize() int64 {
	if f.K == 0 {
		return 0
	}
	return (f.SizeBytes + int64(f.K) - 1) / int64(f.K)
}

// Cluster bundles nodes and files.
type Cluster struct {
	Nodes []Node
	Files []File
}

// Validation errors.
var (
	ErrNoNodes          = errors.New("cluster: no storage nodes")
	ErrNoFiles          = errors.New("cluster: no files")
	ErrBadPlacement     = errors.New("cluster: invalid placement")
	ErrBadCode          = errors.New("cluster: invalid erasure-code parameters")
	ErrNegativeArrival  = errors.New("cluster: negative arrival rate")
	ErrNotEnoughNodes   = errors.New("cluster: fewer nodes than chunks to place")
	ErrMissingService   = errors.New("cluster: node missing service distribution")
	ErrDuplicateNodeIDs = errors.New("cluster: duplicate node IDs")
)

// Validate checks structural consistency of the cluster description.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return ErrNoNodes
	}
	if len(c.Files) == 0 {
		return ErrNoFiles
	}
	ids := make(map[int]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.Service == nil {
			return fmt.Errorf("%w: node %d", ErrMissingService, n.ID)
		}
		if ids[n.ID] {
			return fmt.Errorf("%w: id %d", ErrDuplicateNodeIDs, n.ID)
		}
		ids[n.ID] = true
	}
	for _, f := range c.Files {
		if f.K < 1 || f.N < f.K {
			return fmt.Errorf("%w: file %d has (n=%d, k=%d)", ErrBadCode, f.ID, f.N, f.K)
		}
		if f.Lambda < 0 {
			return fmt.Errorf("%w: file %d", ErrNegativeArrival, f.ID)
		}
		if len(f.Placement) != f.N {
			return fmt.Errorf("%w: file %d placement has %d entries, want %d", ErrBadPlacement, f.ID, len(f.Placement), f.N)
		}
		seen := make(map[int]bool, f.N)
		for _, nodeID := range f.Placement {
			if !ids[nodeID] {
				return fmt.Errorf("%w: file %d references unknown node %d", ErrBadPlacement, f.ID, nodeID)
			}
			if seen[nodeID] {
				return fmt.Errorf("%w: file %d places two chunks on node %d", ErrBadPlacement, f.ID, nodeID)
			}
			seen[nodeID] = true
		}
	}
	return nil
}

// NodeStats returns the service statistics of every node, indexed by slice
// position (not node ID).
func (c *Cluster) NodeStats() []queue.NodeStats {
	stats := make([]queue.NodeStats, len(c.Nodes))
	for i, n := range c.Nodes {
		stats[i] = n.Stats()
	}
	return stats
}

// NodeIndex maps node IDs to their position in the Nodes slice.
func (c *Cluster) NodeIndex() map[int]int {
	idx := make(map[int]int, len(c.Nodes))
	for i, n := range c.Nodes {
		idx[n.ID] = i
	}
	return idx
}

// Lambdas returns the per-file request arrival rates in file order.
func (c *Cluster) Lambdas() []float64 {
	l := make([]float64, len(c.Files))
	for i, f := range c.Files {
		l[i] = f.Lambda
	}
	return l
}

// RandomPlacement selects n distinct nodes uniformly at random for a file.
func RandomPlacement(rng *rand.Rand, numNodes, n int) ([]int, error) {
	if n > numNodes {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNotEnoughNodes, n, numNodes)
	}
	perm := rng.Perm(numNodes)
	placement := append([]int(nil), perm[:n]...)
	return placement, nil
}

// PaperServiceRates are the inverse mean service times of the 12 storage
// servers used throughout the paper's numerical section. The published list
// contains 11 values for 12 servers; we follow the pattern of the pairs and
// repeat the first rate for the first two servers, giving 12 entries with
// the same multiset of rates the figures were produced with.
var PaperServiceRates = []float64{
	0.1, 0.1, 0.1, 0.1, 0.0909, 0.0909, 0.0667, 0.0667, 0.0769, 0.0769, 0.0588, 0.0588,
}

// PaperArrivalRates is the repeating five-way arrival-rate pattern assigned
// to groups of files (requests/sec).
var PaperArrivalRates = []float64{0.000156, 0.000156, 0.000125, 0.000167, 0.000104}

// PaperFileSizeBytes is the 100 MB file size used in the simulations.
const PaperFileSizeBytes = 100 * 1024 * 1024

// PaperChunkSizeBytes is the resulting 25 MB chunk size for the (7,4) code.
const PaperChunkSizeBytes = PaperFileSizeBytes / 4

// Config controls construction of a synthetic cluster.
type Config struct {
	NumNodes     int
	NumFiles     int
	N, K         int
	FileSize     int64
	ServiceRates []float64 // one per node; exponential service with this rate
	ArrivalRates []float64 // repeating pattern over files
	Seed         int64
}

// PaperConfig returns the configuration of the paper's main simulation:
// 12 servers, 1000 files, (7,4) code, 100 MB files.
func PaperConfig() Config {
	return Config{
		NumNodes:     12,
		NumFiles:     1000,
		N:            7,
		K:            4,
		FileSize:     PaperFileSizeBytes,
		ServiceRates: PaperServiceRates,
		ArrivalRates: PaperArrivalRates,
		Seed:         1,
	}
}

// ObjectName is the name of file fileID's object in a storage pool: every
// store that serves a controller's files names them this way.
func ObjectName(fileID int) string { return fmt.Sprintf("file-%04d", fileID) }

// Build creates a cluster from the configuration, using exponential service
// times with the configured rates and random chunk placement.
func (cfg Config) Build() (*Cluster, error) {
	if cfg.NumNodes <= 0 || cfg.NumFiles <= 0 {
		return nil, fmt.Errorf("cluster: config needs positive node and file counts")
	}
	if cfg.N < cfg.K || cfg.K < 1 {
		return nil, fmt.Errorf("%w: (n=%d,k=%d)", ErrBadCode, cfg.N, cfg.K)
	}
	if cfg.N > cfg.NumNodes {
		return nil, fmt.Errorf("%w: n=%d nodes=%d", ErrNotEnoughNodes, cfg.N, cfg.NumNodes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := make([]Node, cfg.NumNodes)
	for i := range nodes {
		rate := 0.1
		if len(cfg.ServiceRates) > 0 {
			rate = cfg.ServiceRates[i%len(cfg.ServiceRates)]
		}
		nodes[i] = Node{ID: i, Name: fmt.Sprintf("osd-%d", i), Service: queue.NewExponential(rate)}
	}
	files := make([]File, cfg.NumFiles)
	for i := range files {
		lambda := 0.0001
		if len(cfg.ArrivalRates) > 0 {
			lambda = cfg.ArrivalRates[i%len(cfg.ArrivalRates)]
		}
		placement, err := RandomPlacement(rng, cfg.NumNodes, cfg.N)
		if err != nil {
			return nil, err
		}
		files[i] = File{
			ID:        i,
			Name:      ObjectName(i),
			SizeBytes: cfg.FileSize,
			K:         cfg.K,
			N:         cfg.N,
			Placement: placement,
			Lambda:    lambda,
		}
	}
	c := &Cluster{Nodes: nodes, Files: files}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// WithArrivalRates returns a copy of the cluster with per-file arrival rates
// replaced by the given slice (len must equal the number of files). Used to
// advance between time bins without rebuilding placement.
func (c *Cluster) WithArrivalRates(lambdas []float64) (*Cluster, error) {
	if len(lambdas) != len(c.Files) {
		return nil, fmt.Errorf("cluster: %d rates for %d files", len(lambdas), len(c.Files))
	}
	out := &Cluster{Nodes: c.Nodes, Files: append([]File(nil), c.Files...)}
	for i := range out.Files {
		if lambdas[i] < 0 {
			return nil, ErrNegativeArrival
		}
		out.Files[i].Lambda = lambdas[i]
	}
	return out, nil
}
