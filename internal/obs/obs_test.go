package obs

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/metrics"
	"sprout/internal/objstore"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/ring"
	"sprout/internal/router"
	"sprout/internal/transport"
)

var update = flag.Bool("update", false, "rewrite docs/metrics.md from the live registry")

// fullRegistry builds a registry with every plane registered — the complete
// metric surface, used by the conformance and docs tests.
func fullRegistry(t *testing.T) *metrics.Registry {
	t.Helper()
	nodes := make([]cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: i, Name: fmt.Sprintf("osd-%d", i), Service: queue.NewExponential(1.0)}
	}
	rng := rand.New(rand.NewSource(7))
	files := make([]cluster.File, 3)
	for i := range files {
		placement, _ := cluster.RandomPlacement(rng, 4, 3)
		files[i] = cluster.File{ID: i, Name: fmt.Sprintf("f%d", i), SizeBytes: 300,
			K: 2, N: 3, Placement: placement, Lambda: 0.05}
	}
	clu := &cluster.Cluster{Nodes: nodes, Files: files}
	ctrl, err := core.NewControllerWith(clu, 4, optimizer.Options{MaxOuterIter: 6}, core.ServeOptions{
		Admission:      &core.AdmissionConfig{LatencyTarget: time.Second},
		ReplanInterval: time.Hour,
		Tenants: []core.TenantPolicy{
			{Name: "gold", Class: core.ClassGold, Weight: 4, Files: []int{0}},
			{Name: "bronze", Class: core.ClassBronze, Weight: 1},
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })

	rt := router.New(router.Options{FanoutWorkers: 1})
	if err := rt.AddShard(router.Shard{ID: "shard-0", Ctrl: ctrl}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })

	return NewRegistry(Sources{
		Controller:      ctrl,
		TransportClient: func() transport.TransportStats { return transport.TransportStats{Requests: 1} },
		TransportServer: func() transport.TransportStats { return transport.TransportStats{Requests: 2} },
		Repair:          func() repair.Stats { return repair.Stats{Scans: 1} },
		OSDHealth: func() []objstore.OSDHealth {
			return []objstore.OSDHealth{
				{ID: 0, State: objstore.StateUp, Served: 3, Chunks: 2},
				{ID: 1, State: objstore.StateDown, Errors: 1, LostChunks: 2},
			}
		},
		Chaos:   func() transport.ChaosStats { return transport.ChaosStats{DelaysInjected: 1} },
		Runtime: true,
		Pools: []PoolSource{
			transport.FrameArena(),
			core.FillArena(),
			core.ReadScratchPool(),
			erasure.StripeScratchPool(),
		},
		Rings: []RingSource{
			{Name: "controller_fill", Stats: ctrl.FillQueueStats},
			{Name: "transport_work", Stats: func() ring.Stats { return ring.Stats{Pushes: 1, Pops: 1} }},
		},
		Router: rt,
		Shards: []ShardSource{{Shard: "shard-0", Controller: ctrl}},
	})
}

// TestConformance is the promlint-style gate: every registered family must
// pass the naming/help/label rules, across the full metric surface.
func TestConformance(t *testing.T) {
	reg := fullRegistry(t)
	if issues := metrics.Lint(reg); len(issues) != 0 {
		t.Fatalf("metric conformance violations:\n  %s", strings.Join(issues, "\n  "))
	}
}

// TestExpositionParsesStrictly renders the full registry and re-reads it
// with the strict parser: order, types, histogram cumulativity, duplicate
// series.
func TestExpositionParsesStrictly(t *testing.T) {
	reg := fullRegistry(t)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("strict parse of full exposition: %v\n%s", err, sb.String())
	}
	for _, want := range []string{
		"sprout_reads_total",
		"sprout_read_latency_seconds",
		"sprout_write_latency_seconds",
		"sprout_saturation_level",
		"sprout_node_inflight_requests",
		"sprout_picks_reordered_total",
		"sprout_cache_target_chunks",
		"sprout_cache_occupancy_chunks",
		"sprout_transport_frames_total",
		"sprout_repair_scans_total",
		"sprout_osd_state_info",
		"sprout_erasure_plan_hits_total",
		"sprout_chaos_delays_total",
		"sprout_peer_invalidations_total",
		"sprout_router_reads_total",
		"sprout_router_invalidations_sent_total",
		"sprout_router_fanout_latency_seconds",
		"sprout_shard_reads_total",
		"sprout_shard_invalidations_total",
		"sprout_shard_read_latency_seconds",
	} {
		if fams[want] == nil {
			t.Errorf("exposition missing family %s", want)
		}
	}
	if fam := fams["sprout_osd_state_info"]; fam != nil {
		seen := map[string]string{}
		for _, s := range fam.Samples {
			seen[s.Labels["osd"]] = s.Labels["state"]
		}
		if seen["0"] != "up" || seen["1"] != "down" {
			t.Errorf("osd state labels = %v", seen)
		}
	}
}

// TestCollectorsAreScrapeTime verifies bridges read the live stats at each
// gather rather than caching registration-time values.
func TestCollectorsAreScrapeTime(t *testing.T) {
	var calls int
	reg := metrics.NewRegistry()
	Register(reg, Sources{Repair: func() repair.Stats {
		calls++
		return repair.Stats{Scans: int64(calls)}
	}})
	read := func() float64 {
		for _, fam := range reg.Gather() {
			if fam.Desc.Name == "sprout_repair_scans_total" {
				return fam.Samples[0].Value
			}
		}
		t.Fatal("family missing")
		return 0
	}
	first := read()
	second := read()
	if second <= first {
		t.Fatalf("collector cached its value: %v then %v", first, second)
	}
}

// TestReadLatencyHistogramBridges drives real reads through a controller and
// checks the observations land in the exported histogram.
func TestReadLatencyHistogramBridges(t *testing.T) {
	nodes := make([]cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: i, Name: fmt.Sprintf("osd-%d", i), Service: queue.NewExponential(1.0)}
	}
	rng := rand.New(rand.NewSource(9))
	placement, _ := cluster.RandomPlacement(rng, 4, 3)
	clu := &cluster.Cluster{Nodes: nodes, Files: []cluster.File{
		{ID: 0, Name: "f0", SizeBytes: 300, K: 2, N: 3, Placement: placement, Lambda: 0.05},
	}}
	ctrl, err := core.NewController(clu, 2, optimizer.Options{MaxOuterIter: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	meta := ctrl.Files()[0]
	payload := make([]byte, meta.SizeBytes)
	rng.Read(payload)
	dataChunks, err := meta.Code.Split(payload)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := meta.Code.Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	fetcher := core.FetcherFunc(func(_ context.Context, _, chunkIndex, _ int) ([]byte, error) {
		return storage[chunkIndex], nil
	})
	if _, err := ctrl.PlanTimeBin([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Read(context.Background(), 0, fetcher); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(Sources{Controller: ctrl})
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range fams["sprout_read_latency_seconds"].Samples {
		if strings.HasSuffix(s.Series, "_count") {
			total += s.Value
		}
	}
	if total != 1 {
		t.Fatalf("read latency histogram count = %v, want 1", total)
	}
	if fams["sprout_reads_total"].Samples[0].Value != 1 {
		t.Fatalf("reads_total = %v, want 1", fams["sprout_reads_total"].Samples[0].Value)
	}
}

// TestDocsInSync diffs docs/metrics.md against the live registry's generated
// table. Regenerate with: go test ./internal/obs -run TestDocsInSync -update
func TestDocsInSync(t *testing.T) {
	reg := fullRegistry(t)
	table := metrics.DocMarkdown(reg)
	doc := "# Sprout metrics reference\n\n" +
		"Generated from the live metric registry (internal/obs). Do not edit the\n" +
		"table by hand — run `go test ./internal/obs -run TestDocsInSync -update`\n" +
		"after adding or changing metrics. All metrics follow the conformance\n" +
		"rules enforced by `metrics.Lint`: `sprout_` namespace, snake_case,\n" +
		"`_total` counters, `_seconds` histograms, unit-suffixed gauges.\n\n" +
		"Latency histograms share one bucket layout: 28 power-of-two buckets\n" +
		"spanning 1µs to ~134s (the layout of the controller's lock-free\n" +
		"read-latency histogram).\n\n" +
		table
	path := filepath.Join("..", "..", "docs", "metrics.md")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if string(got) != doc {
		t.Fatalf("docs/metrics.md is out of sync with the live registry; regenerate with\n  go test ./internal/obs -run TestDocsInSync -update")
	}
}
