package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sprout/internal/queue"
)

func TestPaperConfigBuild(t *testing.T) {
	c, err := PaperConfig().Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 12 {
		t.Fatalf("nodes = %d, want 12", len(c.Nodes))
	}
	if len(c.Files) != 1000 {
		t.Fatalf("files = %d, want 1000", len(c.Files))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Aggregate arrival rate stated in the paper: ~0.1416/sec.
	total := totalRate(c)
	if total < 0.14 || total > 0.145 {
		t.Fatalf("total arrival rate = %v, want ~0.1416", total)
	}
	// Every file uses a (7,4) code and 25 MB chunks.
	for _, f := range c.Files {
		if f.N != 7 || f.K != 4 {
			t.Fatalf("file %d has (%d,%d)", f.ID, f.N, f.K)
		}
		if chunk := f.SizeBytes / int64(f.K); chunk != PaperChunkSizeBytes {
			t.Fatalf("chunk size = %d", chunk)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := PaperConfig()
	cfg.NumNodes = 0
	if _, err := cfg.Build(); err == nil {
		t.Fatal("expected error for zero nodes")
	}
	cfg = PaperConfig()
	cfg.K = 0
	if _, err := cfg.Build(); err == nil {
		t.Fatal("expected error for k=0")
	}
	cfg = PaperConfig()
	cfg.N = 20 // more chunks than nodes
	if _, err := cfg.Build(); err == nil {
		t.Fatal("expected error for n > nodes")
	}
}

func TestValidateCatchesBadPlacement(t *testing.T) {
	node := Node{ID: 0, Service: queue.NewExponential(1)}
	base := File{ID: 0, SizeBytes: 100, K: 1, N: 1, Placement: []int{0}, Lambda: 1}

	c := &Cluster{Nodes: []Node{node}, Files: []File{base}}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}

	bad := base
	bad.Placement = []int{5}
	c = &Cluster{Nodes: []Node{node}, Files: []File{bad}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for unknown node in placement")
	}

	bad = base
	bad.Placement = []int{0, 0}
	bad.N = 2
	bad.K = 1
	c = &Cluster{Nodes: []Node{node, {ID: 1, Service: queue.NewExponential(1)}}, Files: []File{bad}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for duplicate placement")
	}

	bad = base
	bad.Lambda = -1
	c = &Cluster{Nodes: []Node{node}, Files: []File{bad}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for negative arrival rate")
	}

	bad = base
	bad.K = 3
	bad.N = 2
	c = &Cluster{Nodes: []Node{node}, Files: []File{bad}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for n < k")
	}

	c = &Cluster{Nodes: []Node{node}, Files: nil}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for no files")
	}
	c = &Cluster{Nodes: nil, Files: []File{base}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for no nodes")
	}
	c = &Cluster{Nodes: []Node{{ID: 0}}, Files: []File{base}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for missing service distribution")
	}
	c = &Cluster{Nodes: []Node{node, {ID: 0, Service: queue.NewExponential(1)}}, Files: []File{base}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for duplicate node IDs")
	}
}

func TestRandomPlacementDistinct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		placement, err := RandomPlacement(rng, 12, 7)
		if err != nil {
			return false
		}
		if len(placement) != 7 {
			return false
		}
		seen := make(map[int]bool)
		for _, p := range placement {
			if p < 0 || p >= 12 || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPlacementTooMany(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomPlacement(rng, 3, 5); err == nil {
		t.Fatal("expected error when n > numNodes")
	}
}

func TestNodeStatsAndIndex(t *testing.T) {
	c, err := PaperConfig().Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := c.NodeStats()
	if len(stats) != 12 {
		t.Fatalf("stats len = %d", len(stats))
	}
	// Node 0 has rate 0.1 -> mean 10s.
	if stats[0].Mu != 0.1 {
		t.Fatalf("node 0 mu = %v", stats[0].Mu)
	}
	idx := c.NodeIndex()
	for i, n := range c.Nodes {
		if idx[n.ID] != i {
			t.Fatalf("index mismatch for node %d", n.ID)
		}
	}
}

func TestLambdasAndWithArrivalRates(t *testing.T) {
	cfg := PaperConfig()
	cfg.NumFiles = 10
	c, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := c.Lambdas()
	if len(l) != 10 {
		t.Fatalf("lambdas len = %d", len(l))
	}
	newRates := make([]float64, 10)
	for i := range newRates {
		newRates[i] = 0.5
	}
	c2, err := c.WithArrivalRates(newRates)
	if err != nil {
		t.Fatal(err)
	}
	if total := totalRate(c2); total != 5 {
		t.Fatalf("total = %v", total)
	}
	// Original unchanged.
	if c.Files[0].Lambda == 0.5 {
		t.Fatal("WithArrivalRates mutated the original cluster")
	}
	if _, err := c.WithArrivalRates(newRates[:3]); err == nil {
		t.Fatal("expected error for wrong length")
	}
	newRates[0] = -1
	if _, err := c.WithArrivalRates(newRates); err == nil {
		t.Fatal("expected error for negative rate")
	}
}

func TestPaperServiceRatesLength(t *testing.T) {
	if len(PaperServiceRates) != 12 {
		t.Fatalf("expected 12 service rates, got %d", len(PaperServiceRates))
	}
}

// totalRate is the aggregate file request rate of c.
func totalRate(c *Cluster) float64 {
	var sum float64
	for _, f := range c.Files {
		sum += f.Lambda
	}
	return sum
}
