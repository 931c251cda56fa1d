package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sprout/internal/core"
	"sprout/internal/objstore"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/stack"
	"sprout/internal/workload"
)

// DegradedResult measures the serving path at one (failed OSDs, cache
// warmth) point: latency under live load while f OSDs are down with their
// chunks lost, plus the repair plane's progress restoring redundancy.
type DegradedResult struct {
	Cache  string // "cold" (no functional cache) or "warm" (planned + prefetched)
	Failed int    // OSDs failed with chunk loss (0 = healthy baseline)

	Ops       int
	OpsPerSec float64
	P50ms     float64
	P99ms     float64

	// DegradedReads / CacheRescues / Failovers are the controller's
	// degraded-serving counters over the run.
	DegradedReads int64
	CacheRescues  int64
	Failovers     int64

	// LostChunks is how many chunks the failure dropped; RepairedChunks how
	// many the repair plane reconstructed while load continued;
	// RemainingDegraded how many objects still miss chunks at the end (0 =
	// full redundancy restored). RepairMBps is reconstruction throughput.
	LostChunks        int
	RepairedChunks    int64
	RemainingDegraded int
	RepairMBps        float64
}

// degradedPointConfig bounds one measurement point.
type degradedPoint struct {
	objects int
	objSize int
	readers int
	healthy time.Duration // load served before the failure is injected
	tail    time.Duration // load served after repair completes
	healBy  time.Duration // give up waiting for repair after this long
}

// DegradedReadLatency runs the classic erasure-store failure drill on the
// emulated cluster: write objects into a (7,4) pool, serve Zipf reads
// through the controller, kill f OSDs (losing their chunks) under live
// load for f = 0..n-k, keep serving degraded reads, and let the repair
// plane reconstruct the lost chunks concurrently. Each point reports
// latency percentiles over the whole run (healthy + degraded + repair
// windows) and whether redundancy was fully restored.
func DegradedReadLatency(cfg Config) ([]DegradedResult, error) {
	cfg = cfg.withDefaults()
	pt := degradedPoint{
		objects: cfg.Files,
		objSize: 64 << 10,
		readers: 8,
		healthy: 150 * time.Millisecond,
		tail:    100 * time.Millisecond,
		healBy:  20 * time.Second,
	}
	if pt.objects > 48 {
		pt.objects = 48 // bounds per-point write/prefetch cost
	}

	var out []DegradedResult
	for _, cache := range []string{"cold", "warm"} {
		for f := 0; f <= 3; f++ {
			res, err := degradedReadPoint(cfg, pt, cache, f)
			if err != nil {
				return nil, fmt.Errorf("bench: degraded point %s/f=%d: %w", cache, f, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

func degradedReadPoint(cfg Config, pt degradedPoint, cacheMode string, failed int) (DegradedResult, error) {
	ctx := context.Background()
	st, err := stack.New(ctx, stack.Spec{
		Service: queue.ShiftedExponential{Shift: 0.0005, Rate: 2000},
		Seed:    cfg.Seed,
		Objects: pt.objects,
		Size:    pt.objSize,
	})
	if err != nil {
		return DegradedResult{}, err
	}
	defer st.Close()
	capacity := 0
	if cacheMode == "warm" {
		capacity = 2 * pt.objects
	}
	ctrl, err := st.Controller(ctx, capacity, core.ServeOptions{}, cfg.Seed)
	if err != nil {
		return DegradedResult{}, err
	}

	mgr := repair.NewManager(st.Pool, repair.Config{Workers: 2, ScanInterval: 25 * time.Millisecond})
	mgr.Start()
	defer mgr.Close()

	// Serve Zipf reads from the reader pool until told to stop.
	picker := workload.NewRatePicker(st.Lambdas)
	loadCtx, stopLoad := context.WithCancel(ctx)
	loaded := make(chan loopResult, 1)
	go func() {
		loaded <- closedLoop{workers: pt.readers, seed: cfg.Seed + 100}.run(loadCtx, func(r *rand.Rand, _ int) error {
			_, err := ctrl.Read(ctx, picker.Pick(r.Float64()), st.Local)
			return err
		})
	}()
	finish := func() loopResult {
		stopLoad()
		return <-loaded
	}

	time.Sleep(pt.healthy)
	lost := 0
	if failed > 0 {
		// Fail the first f OSDs with chunk loss, under live load, and tell
		// the controller — a heartbeat on OSD state is exercised by the
		// nodefailure example; here injection is explicit so every point
		// fails the same nodes.
		before := chunkCounts(st.Cluster)
		ids := make([]int, failed)
		for i := range ids {
			ids[i] = i
		}
		if err := st.Cluster.FailOSDs(true, ids...); err != nil {
			finish()
			return DegradedResult{}, err
		}
		for _, id := range ids {
			lost += before[id]
			ctrl.SetNodeDown(id)
		}
		mgr.Kick()

		// Wait until the repair plane has restored every lost chunk (or the
		// deadline passes) while the readers keep hammering the pool.
		deadline := time.Now().Add(pt.healBy)
		for time.Now().Before(deadline) {
			if mgr.Stats().InFlight == 0 && len(st.Pool.DegradedObjects()) == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	time.Sleep(pt.tail)
	res := finish()
	if res.err != nil {
		return DegradedResult{}, res.err
	}

	stats := ctrl.Stats()
	rs := mgr.Stats()
	var mbps float64
	if rs.RepairTime > 0 {
		mbps = float64(rs.BytesRepaired) / rs.RepairTime.Seconds() / (1 << 20)
	}
	return DegradedResult{
		Cache:             cacheMode,
		Failed:            failed,
		Ops:               len(res.lats),
		OpsPerSec:         res.opsPerSec(),
		P50ms:             pct(res.lats, 0.50),
		P99ms:             pct(res.lats, 0.99),
		DegradedReads:     stats.DegradedReads,
		CacheRescues:      stats.CacheRescues,
		Failovers:         stats.FetchFailovers,
		LostChunks:        lost,
		RepairedChunks:    rs.ChunksRepaired,
		RemainingDegraded: len(st.Pool.DegradedObjects()),
		RepairMBps:        mbps,
	}, nil
}

// chunkCounts snapshots how many chunks each OSD stores, by OSD ID.
func chunkCounts(oc *objstore.Cluster) map[int]int {
	out := make(map[int]int)
	for _, osd := range oc.OSDs() {
		out[osd.ID] = osd.NumChunks()
	}
	return out
}

// DegradedTable renders DegradedReadLatency results with the latency
// inflation of each point over the matching healthy baseline.
func DegradedTable(results []DegradedResult) *Table {
	t := &Table{
		Title:   "degraded reads under OSD failures: latency vs failed nodes, with background repair",
		Headers: []string{"cache", "failed", "ops", "ops/s", "p50 ms", "p99 ms", "p99 vs healthy", "degraded", "rescues", "failovers", "lost", "repaired", "left", "repair MB/s"},
		Notes: []string{
			"(7,4) pool over 12 OSDs; failed OSDs lose their chunks; reads keep flowing during failure and repair",
			"repair reconstructs lost chunks from k survivors and re-places them on live OSDs (fewest-survivors first)",
			"left = objects still missing chunks at the end of the run (0 = full redundancy restored)",
		},
	}
	baseline := make(map[string]float64)
	for _, r := range results {
		if r.Failed == 0 {
			baseline[r.Cache] = r.P99ms
		}
	}
	for _, r := range results {
		rel := "1.00x"
		if b := baseline[r.Cache]; b > 0 && r.Failed > 0 {
			rel = fmt.Sprintf("%.2fx", r.P99ms/b)
		}
		t.AddRow(
			r.Cache,
			itoa(r.Failed),
			itoa(r.Ops),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2f", r.P50ms),
			fmt.Sprintf("%.2f", r.P99ms),
			rel,
			i64toa(r.DegradedReads),
			i64toa(r.CacheRescues),
			i64toa(r.Failovers),
			itoa(r.LostChunks),
			i64toa(r.RepairedChunks),
			itoa(r.RemainingDegraded),
			fmt.Sprintf("%.1f", r.RepairMBps),
		)
	}
	// Gate on the worst warm-cache failure point: p99 inflation over the
	// healthy baseline stays bounded, and repair restores full redundancy.
	worst := -1
	for i, r := range results {
		if r.Cache == "warm" && (worst < 0 || r.Failed > results[worst].Failed) {
			worst = i
		}
	}
	if worst >= 0 && results[worst].Failed > 0 {
		r := results[worst]
		if b := baseline["warm"]; b > 0 {
			t.AddMetric("warm_degraded_p99_inflation", r.P99ms/b, "ratio", false, 0.5)
		}
		t.AddMetric("warm_repair_objects_left", float64(r.RemainingDegraded), "objects", false, 0)
		t.AddMetric("warm_cache_rescue_reads", float64(r.CacheRescues), "reads", true, -1)
	}
	return t
}
