package sim

import (
	"math"
	"testing"

	"sprout/internal/cluster"
	"sprout/internal/latency"
	"sprout/internal/queue"
)

// singleNodeCluster builds a cluster with one node and one file needing a
// single chunk so the simulator can be checked against M/M/1 theory.
func singleNodeCluster(mu, lambda float64) *cluster.Cluster {
	return &cluster.Cluster{
		Nodes: []cluster.Node{{ID: 0, Name: "n0", Service: queue.NewExponential(mu)}},
		Files: []cluster.File{{
			ID: 0, Name: "f0", SizeBytes: 100, K: 1, N: 1, Placement: []int{0}, Lambda: lambda,
		}},
	}
}

func TestRunValidation(t *testing.T) {
	c := singleNodeCluster(1, 0.1)
	if _, err := Run(Config{Cluster: nil, Pi: [][]float64{{1}}, Horizon: 10}); err == nil {
		t.Fatal("expected error for nil cluster")
	}
	if _, err := Run(Config{Cluster: c, Pi: nil, Horizon: 10}); err == nil {
		t.Fatal("expected error for nil pi")
	}
	if _, err := Run(Config{Cluster: c, Pi: [][]float64{{1}, {1}}, Horizon: 10}); err == nil {
		t.Fatal("expected error for pi/file mismatch")
	}
	if _, err := Run(Config{Cluster: c, Pi: [][]float64{{1}}, Horizon: 0}); err == nil {
		t.Fatal("expected error for zero horizon")
	}
	if _, err := Run(Config{Cluster: c, Pi: [][]float64{{0.4}}, Horizon: 10}); err == nil {
		t.Fatal("expected error for non-integral pi row")
	}
}

func TestMM1MeanLatency(t *testing.T) {
	// M/M/1 with mu=1, lambda=0.5: mean response time = 1/(mu-lambda) = 2.
	c := singleNodeCluster(1.0, 0.5)
	res, err := Run(Config{
		Cluster:        c,
		Pi:             [][]float64{{1}},
		Horizon:        200000,
		Seed:           42,
		WarmupFraction: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests simulated")
	}
	if math.Abs(res.MeanLatency-2.0) > 0.15 {
		t.Fatalf("M/M/1 mean latency = %v, want ~2.0", res.MeanLatency)
	}
	// Utilisation should be close to rho = 0.5.
	if math.Abs(res.NodeUtilization[0]-0.5) > 0.05 {
		t.Fatalf("utilisation = %v, want ~0.5", res.NodeUtilization[0])
	}
}

func TestForkJoinSlowerThanSingle(t *testing.T) {
	// A file that reads 2 chunks from 2 nodes must have latency at least the
	// latency of a file reading from one of them.
	nodes := []cluster.Node{
		{ID: 0, Service: queue.NewExponential(1)},
		{ID: 1, Service: queue.NewExponential(1)},
	}
	twoChunk := &cluster.Cluster{
		Nodes: nodes,
		Files: []cluster.File{{ID: 0, SizeBytes: 100, K: 2, N: 2, Placement: []int{0, 1}, Lambda: 0.2}},
	}
	oneChunk := &cluster.Cluster{
		Nodes: nodes,
		Files: []cluster.File{{ID: 0, SizeBytes: 100, K: 1, N: 1, Placement: []int{0}, Lambda: 0.2}},
	}
	resTwo, err := Run(Config{Cluster: twoChunk, Pi: [][]float64{{1, 1}}, Horizon: 50000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := Run(Config{Cluster: oneChunk, Pi: [][]float64{{1, 0}}, Horizon: 50000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resTwo.MeanLatency <= resOne.MeanLatency {
		t.Fatalf("fork-join latency %v should exceed single-read latency %v", resTwo.MeanLatency, resOne.MeanLatency)
	}
}

func TestCachingReducesSimulatedLatency(t *testing.T) {
	// (3,2) file on three equal nodes under load: caching one chunk (reads
	// drop from 2 to 1) must reduce mean latency.
	nodes := []cluster.Node{
		{ID: 0, Service: queue.NewExponential(0.8)},
		{ID: 1, Service: queue.NewExponential(0.8)},
		{ID: 2, Service: queue.NewExponential(0.8)},
	}
	base := &cluster.Cluster{
		Nodes: nodes,
		Files: []cluster.File{{ID: 0, SizeBytes: 100, K: 2, N: 3, Placement: []int{0, 1, 2}, Lambda: 0.5}},
	}
	noCache, err := Run(Config{
		Cluster: base,
		Pi:      [][]float64{{2.0 / 3, 2.0 / 3, 2.0 / 3}},
		Horizon: 50000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	withCache, err := Run(Config{
		Cluster:     base,
		Pi:          [][]float64{{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		CacheChunks: []int{1},
		Horizon:     50000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withCache.MeanLatency >= noCache.MeanLatency {
		t.Fatalf("caching did not reduce latency: %v >= %v", withCache.MeanLatency, noCache.MeanLatency)
	}
	if withCache.CacheChunks == 0 {
		t.Fatal("cache chunk accounting missing")
	}
}

func TestAnalyticalBoundUpperBoundsSimulation(t *testing.T) {
	// The Lemma 1 bound must upper-bound the simulated mean latency for a
	// moderately loaded heterogeneous system.
	nodes := []cluster.Node{
		{ID: 0, Service: queue.NewExponential(0.1)},
		{ID: 1, Service: queue.NewExponential(0.09)},
		{ID: 2, Service: queue.NewExponential(0.07)},
		{ID: 3, Service: queue.NewExponential(0.06)},
	}
	files := []cluster.File{
		{ID: 0, SizeBytes: 100, K: 2, N: 4, Placement: []int{0, 1, 2, 3}, Lambda: 0.01},
		{ID: 1, SizeBytes: 100, K: 2, N: 4, Placement: []int{0, 1, 2, 3}, Lambda: 0.02},
	}
	c := &cluster.Cluster{Nodes: nodes, Files: files}
	pi := [][]float64{
		{0.5, 0.5, 0.5, 0.5},
		{0.5, 0.5, 0.5, 0.5},
	}
	res, err := Run(Config{Cluster: c, Pi: pi, Horizon: 400000, Seed: 5, WarmupFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	stats := c.NodeStats()
	bound, _, err := latency.EvaluateAssignment(stats, c.Lambdas(), pi)
	if err != nil {
		t.Fatal(err)
	}
	if bound < res.MeanLatency {
		t.Fatalf("analytical bound %v below simulated mean %v", bound, res.MeanLatency)
	}
	// The bound should not be absurdly loose either (within ~3x here).
	if bound > 3*res.MeanLatency {
		t.Fatalf("analytical bound %v implausibly loose vs simulated %v", bound, res.MeanLatency)
	}
}

func TestFullyCachedFileLatencyIsCacheLatency(t *testing.T) {
	c := singleNodeCluster(1, 0.2)
	res, err := Run(Config{
		Cluster:      c,
		Pi:           [][]float64{{0}},
		CacheChunks:  []int{1},
		CacheLatency: 0.005,
		Horizon:      10000,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanLatency-0.005) > 1e-9 {
		t.Fatalf("fully cached latency = %v, want 0.005", res.MeanLatency)
	}
	if res.StorageChunks != 0 {
		t.Fatal("no storage chunks should be read for a fully cached file")
	}
}

func TestSlotAccounting(t *testing.T) {
	nodes := []cluster.Node{
		{ID: 0, Service: queue.NewExponential(5)},
		{ID: 1, Service: queue.NewExponential(5)},
		{ID: 2, Service: queue.NewExponential(5)},
	}
	c := &cluster.Cluster{
		Nodes: nodes,
		Files: []cluster.File{{ID: 0, SizeBytes: 100, K: 2, N: 3, Placement: []int{0, 1, 2}, Lambda: 1}},
	}
	res, err := Run(Config{
		Cluster:     c,
		Pi:          [][]float64{{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		CacheChunks: []int{1},
		Horizon:     100,
		SlotLength:  5,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slots) != 20 {
		t.Fatalf("expected 20 slots, got %d", len(res.Slots))
	}
	var slotCache, slotStorage int64
	for _, s := range res.Slots {
		slotCache += s.CacheChunks
		slotStorage += s.StorageChunks
	}
	if slotCache != res.CacheChunks || slotStorage != res.StorageChunks {
		t.Fatalf("slot totals (%d,%d) do not match result totals (%d,%d)",
			slotCache, slotStorage, res.CacheChunks, res.StorageChunks)
	}
	// With d=1 of k=2, cache and storage chunk counts should be equal.
	if res.CacheChunks != res.StorageChunks {
		t.Fatalf("cache %d vs storage %d, want equal", res.CacheChunks, res.StorageChunks)
	}
}

func TestPerFileLatencyNaNForIdleFiles(t *testing.T) {
	nodes := []cluster.Node{{ID: 0, Service: queue.NewExponential(1)}}
	c := &cluster.Cluster{
		Nodes: nodes,
		Files: []cluster.File{
			{ID: 0, SizeBytes: 100, K: 1, N: 1, Placement: []int{0}, Lambda: 0.5},
			{ID: 1, SizeBytes: 100, K: 1, N: 1, Placement: []int{0}, Lambda: 0},
		},
	}
	res, err := Run(Config{Cluster: c, Pi: [][]float64{{1}, {1}}, Horizon: 1000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.PerFileLatency[0]) {
		t.Fatal("file 0 should have latency samples")
	}
	if !math.IsNaN(res.PerFileLatency[1]) {
		t.Fatal("idle file should report NaN latency")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	c := singleNodeCluster(1, 0.3)
	run := func(seed int64) *Result {
		res, err := Run(Config{Cluster: c, Pi: [][]float64{{1}}, Horizon: 5000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(9), run(9); a.MeanLatency != b.MeanLatency || a.Requests != b.Requests {
		t.Fatal("same seed should reproduce identical results")
	}
	if run(9).MeanLatency == run(10).MeanLatency {
		t.Fatal("different seeds should differ (with overwhelming probability)")
	}
}

// TestHedgingDisabledMatchesSeedBehaviour pins that the simulator, which
// launches no hedged chunks, reproduces itself for a fixed seed on a (3,2)
// placement with one slow node: the same requests, latencies and per-node
// chunk counts on every run.
func TestHedgingDisabledMatchesSeedBehaviour(t *testing.T) {
	cfg := Config{
		Cluster: &cluster.Cluster{
			Nodes: []cluster.Node{
				{ID: 0, Name: "slow", Service: queue.NewExponential(0.05)}, // mean 20s
				{ID: 1, Name: "n1", Service: queue.NewExponential(10)},
				{ID: 2, Name: "n2", Service: queue.NewExponential(10)},
				{ID: 3, Name: "n3", Service: queue.NewExponential(10)},
			},
			Files: []cluster.File{{
				ID: 0, Name: "f0", SizeBytes: 100, K: 2, N: 3,
				Placement: []int{0, 1, 2}, Lambda: 0.02,
			}},
		},
		Pi:      [][]float64{{0.4, 0.8, 0.8, 0}},
		Horizon: 5000,
		Seed:    3,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests == 0 {
		t.Fatal("no requests simulated")
	}
	if a.MeanLatency != b.MeanLatency || a.Requests != b.Requests || a.P99Latency != b.P99Latency {
		t.Fatal("simulation must be deterministic for a fixed seed")
	}
	for i := range a.NodeChunks {
		if a.NodeChunks[i] != b.NodeChunks[i] {
			t.Fatalf("node %d served %d then %d chunks for the same seed", i, a.NodeChunks[i], b.NodeChunks[i])
		}
	}
	if a.NodeChunks[3] != 0 {
		t.Fatalf("node 3 is outside the placement but served %d chunks", a.NodeChunks[3])
	}
}

// TestRequestWaitsForCachePiece pins the fork-join over the folded cache
// piece: one cached chunk (d=1) plus one storage read (k-d=1) per request,
// with a cache latency far above the storage service time. The storage read
// alone must never complete the request: no request can finish before its
// cache read does at 20ms.
func TestRequestWaitsForCachePiece(t *testing.T) {
	clu := &cluster.Cluster{
		Nodes: []cluster.Node{
			{ID: 0, Name: "n0", Service: queue.NewExponential(1000)},
			{ID: 1, Name: "n1", Service: queue.NewExponential(1000)},
		},
		Files: []cluster.File{{
			ID: 0, Name: "f0", SizeBytes: 100, K: 2, N: 2,
			Placement: []int{0, 1}, Lambda: 0.01,
		}},
	}
	res, err := Run(Config{
		Cluster:      clu,
		Pi:           [][]float64{{1, 0}},
		CacheChunks:  []int{1},
		CacheLatency: 0.02,
		Horizon:      20000,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Completed != res.Requests {
		t.Fatalf("completed %d of %d requests", res.Completed, res.Requests)
	}
	if res.MeanLatency < 0.02 {
		t.Fatalf("mean latency %.4fs below the 20ms cache read: a storage piece stood in for the cache piece", res.MeanLatency)
	}
}
