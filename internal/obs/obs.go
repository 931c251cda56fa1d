// Package obs bridges every plane's existing stats structs into one
// metrics.Registry, so a single /metrics endpoint exposes the whole stack —
// controller read/write counters and latency histograms, saturation state
// and the live plan's cache targets, transport client/server counters,
// repair progress, OSD health, functional-cache occupancy, and the erasure
// coder's decode-plan cache. All bridges collect at scrape time from the
// planes' atomic snapshots: the hot paths pay nothing for the exporter.
//
// Metric names follow the conformance rules enforced by metrics.Lint (and by
// CI): the sprout_ namespace, snake_case, _total counters, _seconds
// histograms, and unit-suffixed gauges. docs/metrics.md is generated from
// the registry this package builds; a test diffs the two so the docs cannot
// drift.
package obs

import (
	"sort"
	"strconv"

	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/metrics"
	"sprout/internal/objstore"
	"sprout/internal/repair"
	"sprout/internal/router"
	"sprout/internal/transport"
)

// Sources lists the planes feeding a registry. Nil fields are skipped, so a
// deployment registers exactly the planes it runs; the conformance test
// registers all of them.
type Sources struct {
	// Controller bridges read/write counters, latency histograms, the
	// saturation gate, the live plan's cache targets, cache occupancy, and
	// the per-file erasure coders.
	Controller *core.Controller
	// TransportClient and TransportServer snapshot each side's wire counters.
	TransportClient func() transport.TransportStats
	TransportServer func() transport.TransportStats
	// Repair snapshots the repair manager's progress counters.
	Repair func() repair.Stats
	// OSDHealth snapshots per-OSD lifecycle state and health counters.
	OSDHealth func() []objstore.OSDHealth
	// Chaos snapshots the fault injector (usually only set in harnesses).
	Chaos func() transport.ChaosStats
	// Runtime, when true, exposes the Go runtime's GC pause, heap, and
	// goroutine series alongside the planes they serve.
	Runtime bool
	// Pools bridges named buffer arenas and counted scratch pools
	// (lease hits, misses, outstanding).
	Pools []PoolSource
	// Rings bridges named work queues — the transport server's request
	// queue and the controller's fill feed — (pushes, pops, rejects,
	// parks).
	Rings []RingSource
	// Router bridges the shard router: routed operations per shard, the
	// invalidation fan-out protocol counters, and fan-out latency.
	Router *router.Router
	// Shards bridges per-shard controller series under shared families with
	// a shard label, so one scrape shows every shard of the metadata plane.
	Shards []ShardSource
}

// ShardSource names one shard controller for per-shard series.
type ShardSource struct {
	Shard      string
	Controller *core.Controller
}

// Register wires every non-nil source into the registry.
func Register(r *metrics.Registry, s Sources) {
	if s.Controller != nil {
		registerController(r, s.Controller)
	}
	if s.TransportClient != nil || s.TransportServer != nil {
		registerTransport(r, s.TransportClient, s.TransportServer)
	}
	if s.Repair != nil {
		registerRepair(r, s.Repair)
	}
	if s.OSDHealth != nil {
		registerOSDHealth(r, s.OSDHealth)
	}
	if s.Chaos != nil {
		registerChaos(r, s.Chaos)
	}
	if s.Runtime {
		registerRuntime(r)
	}
	if len(s.Pools) > 0 {
		registerPools(r, s.Pools)
	}
	if len(s.Rings) > 0 {
		registerRings(r, s.Rings)
	}
	if s.Router != nil {
		registerRouter(r, s.Router)
	}
	if len(s.Shards) > 0 {
		registerShards(r, s.Shards)
	}
}

// NewRegistry builds a registry with the sources registered — the usual
// one-call path for servers and harnesses.
func NewRegistry(s Sources) *metrics.Registry {
	r := metrics.NewRegistry()
	Register(r, s)
	return r
}

// counter registers one label-less counter family collected by fn.
func counter(r *metrics.Registry, name, help string, fn func() int64) {
	r.MustRegister(metrics.Desc{Name: name, Help: help, Kind: metrics.KindCounter},
		metrics.CollectorFunc(func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(fn())}}
		}))
}

// gauge registers one label-less gauge family collected by fn.
func gauge(r *metrics.Registry, name, help string, fn func() float64) {
	r.MustRegister(metrics.Desc{Name: name, Help: help, Kind: metrics.KindGauge},
		metrics.CollectorFunc(func() []metrics.Sample {
			return []metrics.Sample{{Value: fn()}}
		}))
}

func registerController(r *metrics.Registry, c *core.Controller) {
	st := func() core.Stats { return c.Stats() }
	for _, m := range []struct {
		name, help string
		fn         func(core.Stats) int64
	}{
		{"sprout_reads_total", "File reads served by the controller.", func(s core.Stats) int64 { return s.Reads }},
		{"sprout_cache_only_reads_total", "Reads served entirely from cached functional chunks.", func(s core.Stats) int64 { return s.CacheOnlyReads }},
		{"sprout_lazy_fills_total", "Background cache fills completed after reads.", func(s core.Stats) int64 { return s.LazyFills }},
		{"sprout_plan_updates_total", "Cache plans applied (manual and automatic).", func(s core.Stats) int64 { return s.PlanUpdates }},
		{"sprout_fills_enqueued_total", "Background fill jobs accepted into the queue.", func(s core.Stats) int64 { return s.FillsEnqueued }},
		{"sprout_fills_dropped_total", "Background fill jobs shed from the full queue.", func(s core.Stats) int64 { return s.FillsDropped }},
		{"sprout_fill_errors_total", "Background fills that failed.", func(s core.Stats) int64 { return s.FillErrors }},
		{"sprout_hedges_launched_total", "Extra chunk fetches started by the hedge timer.", func(s core.Stats) int64 { return s.HedgesLaunched }},
		{"sprout_hedge_wins_total", "Hedged fetches that supplied a winning chunk.", func(s core.Stats) int64 { return s.HedgeWins }},
		{"sprout_fetch_failovers_total", "Chunk fetch failures retried against another node.", func(s core.Stats) int64 { return s.FetchFailovers }},
		{"sprout_auto_replans_total", "Plans triggered by the auto-replanner.", func(s core.Stats) int64 { return s.AutoReplans }},
		{"sprout_replan_errors_total", "Auto-replans that failed.", func(s core.Stats) int64 { return s.ReplanErrors }},
		{"sprout_degraded_reads_total", "Reads that failed over or ran with fewer than k live storage chunks.", func(s core.Stats) int64 { return s.DegradedReads }},
		{"sprout_cache_rescues_total", "Degraded reads served entirely from cache while storage could not decode.", func(s core.Stats) int64 { return s.CacheRescues }},
		{"sprout_membership_changes_total", "Storage node up/down transitions applied.", func(s core.Stats) int64 { return s.MembershipChanges }},
		{"sprout_writes_total", "Object writes committed.", func(s core.Stats) int64 { return s.Writes }},
		{"sprout_write_errors_total", "Object writes that failed.", func(s core.Stats) int64 { return s.WriteErrors }},
		{"sprout_written_bytes_total", "Committed write payload volume.", func(s core.Stats) int64 { return s.WriteBytes }},
		{"sprout_cache_invalidations_total", "Cache chunks evicted because their file was overwritten.", func(s core.Stats) int64 { return s.CacheInvalidations }},
		{"sprout_write_through_chunks_total", "Cache chunks installed directly from just-written data.", func(s core.Stats) int64 { return s.WriteThroughChunks }},
		{"sprout_stale_cache_reloads_total", "Reads that caught and dropped a superseded cached stripe.", func(s core.Stats) int64 { return s.StaleCacheReloads }},
		{"sprout_read_retries_total", "Read attempts repeated after a stripe-consistency violation.", func(s core.Stats) int64 { return s.ReadRetries }},
		{"sprout_picks_reordered_total", "Reads whose fetched node set left the Madow draw because expected-work ranking preferred another placement node.", func(s core.Stats) int64 { return s.PicksReordered }},
		{"sprout_breaker_demotions_total", "Fetch candidates demoted because their node's circuit breaker was open.", func(s core.Stats) int64 { return s.BreakerDemotions }},
		{"sprout_brownout_reads_total", "Reads admitted while the saturation gate was at any brownout level.", func(s core.Stats) int64 { return s.BrownoutReads }},
		{"sprout_hedges_suppressed_total", "Hedge timers withheld at brownout level 1 or deeper.", func(s core.Stats) int64 { return s.HedgesSuppressed }},
		{"sprout_fills_suppressed_total", "Background fills deferred at brownout level 2 or deeper.", func(s core.Stats) int64 { return s.FillsSuppressed }},
		{"sprout_shed_reads_total", "Low-value reads rejected with ErrSaturated at brownout level 3.", func(s core.Stats) int64 { return s.ShedReads }},
		{"sprout_priority_hedges_total", "Gold-tenant reads that kept their hedge timer through brownout level 1.", func(s core.Stats) int64 { return s.PriorityHedges }},
	} {
		fn := m.fn
		counter(r, m.name, m.help, func() int64 { return fn(st()) })
	}

	r.MustRegister(metrics.Desc{
		Name: "sprout_peer_invalidations_total",
		Help: "Versioned peer invalidations received: applied, or dropped as stale (late or duplicate).",
		Kind: metrics.KindCounter, Labels: []string{"result"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		s := st()
		return []metrics.Sample{
			{LabelValues: []string{"applied"}, Value: float64(s.InvalidationsApplied)},
			{LabelValues: []string{"stale_dropped"}, Value: float64(s.InvalidationsStale)},
		}
	}))

	r.MustRegister(metrics.Desc{
		Name: "sprout_read_chunks_total", Help: "Chunks consumed by reads, by source.",
		Kind: metrics.KindCounter, Labels: []string{"source"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		s := st()
		return []metrics.Sample{
			{LabelValues: []string{"cache"}, Value: float64(s.ChunksFromCache)},
			{LabelValues: []string{"storage"}, Value: float64(s.ChunksFromDisk)},
		}
	}))

	r.MustRegister(metrics.Desc{
		Name: "sprout_read_latency_seconds", Help: "Read latency by serving class.",
		Kind: metrics.KindHistogram, Labels: []string{"class"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		byClass := c.ReadLatencyBuckets()
		out := make([]metrics.Sample, 0, len(byClass))
		for _, class := range []string{"cache_hit", "storage", "degraded"} {
			out = append(out, metrics.Sample{LabelValues: []string{class}, Hist: byClass[class].HistValue()})
		}
		return out
	}))
	r.MustRegister(metrics.Desc{
		Name: "sprout_write_latency_seconds", Help: "End-to-end object write latency.",
		Kind: metrics.KindHistogram,
	}, metrics.CollectorFunc(func() []metrics.Sample {
		return []metrics.Sample{{Hist: c.WriteLatencyBuckets().HistValue()}}
	}))

	gauge(r, "sprout_saturation_level", "Admission-gate brownout level (0 healthy … 3 shedding).",
		func() float64 { return float64(c.SaturationLevel()) })
	gauge(r, "sprout_saturation_score_ratio", "Saturation pressure score (1 means a signal is at its target).",
		func() float64 { return c.SaturationScore() })
	gauge(r, "sprout_inflight_reads_requests", "Reads currently inside the admission gate.",
		func() float64 { return float64(c.InFlightReads()) })
	r.MustRegister(metrics.Desc{
		Name: "sprout_node_inflight_requests",
		Help: "Chunk fetches this controller has outstanding on each storage node, the backlog that ranks fetch candidates.",
		Kind: metrics.KindGauge, Labels: []string{"node"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		inflight := c.NodeInFlight()
		out := make([]metrics.Sample, 0, len(inflight))
		for id, n := range inflight {
			out = append(out, metrics.Sample{LabelValues: []string{strconv.Itoa(id)}, Value: float64(n)})
		}
		return out
	}))

	cache := c.Cache()
	gauge(r, "sprout_cache_used_chunks", "Functional-cache chunks currently resident.",
		func() float64 { return float64(cache.Len()) })
	gauge(r, "sprout_cache_capacity_chunks", "Functional-cache capacity.",
		func() float64 { return float64(cache.Capacity()) })
	counter(r, "sprout_cache_hits_total", "Functional-cache chunk lookups served.",
		func() int64 { h, _ := cache.Stats(); return int64(h) })
	counter(r, "sprout_cache_misses_total", "Functional-cache chunk lookups missed.",
		func() int64 { _, m := cache.Stats(); return int64(m) })
	r.MustRegister(metrics.Desc{
		Name: "sprout_cache_occupancy_chunks", Help: "Cached functional chunks per file.",
		Kind: metrics.KindGauge, Labels: []string{"file"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		alloc := cache.Allocation()
		out := make([]metrics.Sample, 0, len(alloc))
		for fileID, n := range alloc {
			out = append(out, metrics.Sample{LabelValues: []string{strconv.Itoa(fileID)}, Value: float64(n)})
		}
		return out
	}))
	r.MustRegister(metrics.Desc{
		Name: "sprout_cache_target_chunks", Help: "Per-file cache allocation d_i of the live plan.",
		Kind: metrics.KindGauge, Labels: []string{"file"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		plan := c.Plan()
		if plan == nil {
			return nil
		}
		out := make([]metrics.Sample, 0, len(plan.D))
		for fileID, d := range plan.D {
			out = append(out, metrics.Sample{LabelValues: []string{strconv.Itoa(fileID)}, Value: float64(d)})
		}
		return out
	}))

	// Per-tenant QoS families. The label set is bounded by configuration:
	// unknown tenant names fold into the default state, so a hostile client
	// cannot inflate the exposition. With no tenants configured the
	// collectors return no samples.
	tenantNames := func(snaps map[string]core.TenantSnapshot) []string {
		names := make([]string, 0, len(snaps))
		for name := range snaps {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	perTenant := func(name, help string, kind metrics.Kind, fn func(core.TenantSnapshot) float64) {
		r.MustRegister(metrics.Desc{Name: name, Help: help, Kind: kind, Labels: []string{"tenant"}},
			metrics.CollectorFunc(func() []metrics.Sample {
				snaps := c.TenantStats()
				out := make([]metrics.Sample, 0, len(snaps))
				for _, tn := range tenantNames(snaps) {
					out = append(out, metrics.Sample{LabelValues: []string{tn}, Value: fn(snaps[tn])})
				}
				return out
			}))
	}
	perTenant("sprout_tenant_reads_total", "Reads served, by tenant.", metrics.KindCounter,
		func(s core.TenantSnapshot) float64 { return float64(s.Reads) })
	perTenant("sprout_tenant_shed_reads_total", "Reads rejected under brownout shedding, by tenant.", metrics.KindCounter,
		func(s core.TenantSnapshot) float64 { return float64(s.Sheds) })
	perTenant("sprout_tenant_cache_share_chunks", "Tenant's slice of the cache budget (0 without a split).", metrics.KindGauge,
		func(s core.TenantSnapshot) float64 { return float64(s.CacheShare) })
	perTenant("sprout_tenant_weight_ratio", "Tenant's weighted-fair share relative to the other tenants.", metrics.KindGauge,
		func(s core.TenantSnapshot) float64 { return float64(s.Policy.Weight) })
	r.MustRegister(metrics.Desc{
		Name: "sprout_tenant_read_latency_seconds", Help: "Served-read latency by tenant.",
		Kind: metrics.KindHistogram, Labels: []string{"tenant"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		byTenant := c.TenantLatencyBuckets()
		names := make([]string, 0, len(byTenant))
		for name := range byTenant {
			names = append(names, name)
		}
		sort.Strings(names)
		out := make([]metrics.Sample, 0, len(names))
		for _, tn := range names {
			out = append(out, metrics.Sample{LabelValues: []string{tn}, Hist: byTenant[tn].HistValue()})
		}
		return out
	}))

	registerErasure(r, func() erasure.CoderStats {
		var sum erasure.CoderStats
		for _, f := range c.Files() {
			sum = sum.Add(f.Code.Stats())
		}
		return sum
	})
}

// registerRouter bridges the shard router's routing and fan-out counters.
func registerRouter(r *metrics.Registry, rt *router.Router) {
	r.MustRegister(metrics.Desc{
		Name: "sprout_router_reads_total", Help: "Reads routed to each shard.",
		Kind: metrics.KindCounter, Labels: []string{"shard"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		st := rt.Stats()
		out := make([]metrics.Sample, len(st.Shards))
		for i, s := range st.Shards {
			out[i] = metrics.Sample{LabelValues: []string{s.ID}, Value: float64(s.Reads)}
		}
		return out
	}))
	r.MustRegister(metrics.Desc{
		Name: "sprout_router_writes_total", Help: "Writes routed to each shard.",
		Kind: metrics.KindCounter, Labels: []string{"shard"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		st := rt.Stats()
		out := make([]metrics.Sample, len(st.Shards))
		for i, s := range st.Shards {
			out[i] = metrics.Sample{LabelValues: []string{s.ID}, Value: float64(s.Writes)}
		}
		return out
	}))
	counter(r, "sprout_router_invalidations_sent_total",
		"Invalidation deliveries handed to the fan-out pool.",
		func() int64 { return rt.Stats().InvalidationsSent })
	r.MustRegister(metrics.Desc{
		Name: "sprout_router_invalidation_acks_total",
		Help: "Invalidation delivery outcomes: applied by the peer, dropped as stale (late or duplicate), or failed.",
		Kind: metrics.KindCounter, Labels: []string{"result"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		st := rt.Stats()
		return []metrics.Sample{
			{LabelValues: []string{"applied"}, Value: float64(st.InvalidationsApplied)},
			{LabelValues: []string{"stale_dropped"}, Value: float64(st.InvalidationsStale)},
			{LabelValues: []string{"error"}, Value: float64(st.InvalidationErrors)},
		}
	}))
	counter(r, "sprout_router_fanouts_total", "Writes that fanned an invalidation out to peer shards.",
		func() int64 { return rt.Stats().Fanouts })
	r.MustRegister(metrics.Desc{
		Name: "sprout_router_fanout_latency_seconds",
		Help: "Write-side latency of the full invalidation fan-out barrier.",
		Kind: metrics.KindHistogram,
	}, metrics.CollectorFunc(func() []metrics.Sample {
		return []metrics.Sample{{Hist: rt.FanoutLatencyBuckets().HistValue()}}
	}))
	gauge(r, "sprout_router_shard_count", "Shards currently on the hash ring.",
		func() float64 { return float64(len(rt.Stats().Shards)) })
	counter(r, "sprout_router_ring_version_total", "Ring membership version (bumps on every add/remove).",
		func() int64 { return int64(rt.Stats().RingVersion) })
}

// registerShards exposes per-shard controller series under shared families
// with a shard label.
func registerShards(r *metrics.Registry, shards []ShardSource) {
	perShard := func(name, help string, kind metrics.Kind, fn func(*core.Controller) float64) {
		r.MustRegister(metrics.Desc{Name: name, Help: help, Kind: kind, Labels: []string{"shard"}},
			metrics.CollectorFunc(func() []metrics.Sample {
				out := make([]metrics.Sample, len(shards))
				for i, s := range shards {
					out[i] = metrics.Sample{LabelValues: []string{s.Shard}, Value: fn(s.Controller)}
				}
				return out
			}))
	}
	perShard("sprout_shard_reads_total", "Reads served by each shard controller.", metrics.KindCounter,
		func(c *core.Controller) float64 { return float64(c.Stats().Reads) })
	perShard("sprout_shard_writes_total", "Writes committed by each shard controller.", metrics.KindCounter,
		func(c *core.Controller) float64 { return float64(c.Stats().Writes) })
	perShard("sprout_shard_lazy_fills_total", "Background cache fills completed by each shard.", metrics.KindCounter,
		func(c *core.Controller) float64 { return float64(c.Stats().LazyFills) })
	perShard("sprout_shard_plan_updates_total", "Cache plans applied by each shard.", metrics.KindCounter,
		func(c *core.Controller) float64 { return float64(c.Stats().PlanUpdates) })
	perShard("sprout_shard_cache_used_chunks", "Functional-cache chunks resident on each shard.", metrics.KindGauge,
		func(c *core.Controller) float64 { return float64(c.Cache().Len()) })
	perShard("sprout_shard_cache_capacity_chunks", "Functional-cache capacity of each shard.", metrics.KindGauge,
		func(c *core.Controller) float64 { return float64(c.Cache().Capacity()) })
	r.MustRegister(metrics.Desc{
		Name: "sprout_shard_invalidations_total",
		Help: "Versioned peer invalidations received by each shard: applied, or dropped as stale (late or duplicate).",
		Kind: metrics.KindCounter, Labels: []string{"shard", "result"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		out := make([]metrics.Sample, 0, 2*len(shards))
		for _, s := range shards {
			st := s.Controller.Stats()
			out = append(out,
				metrics.Sample{LabelValues: []string{s.Shard, "applied"}, Value: float64(st.InvalidationsApplied)},
				metrics.Sample{LabelValues: []string{s.Shard, "stale_dropped"}, Value: float64(st.InvalidationsStale)})
		}
		return out
	}))
	r.MustRegister(metrics.Desc{
		Name: "sprout_shard_read_latency_seconds",
		Help: "Read latency per shard, all serving classes folded.",
		Kind: metrics.KindHistogram, Labels: []string{"shard"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		out := make([]metrics.Sample, len(shards))
		for i, s := range shards {
			var all metrics.HistogramBuckets
			for _, b := range s.Controller.ReadLatencyBuckets() {
				all = all.Add(b)
			}
			out[i] = metrics.Sample{LabelValues: []string{s.Shard}, Hist: all.HistValue()}
		}
		return out
	}))
}

func registerErasure(r *metrics.Registry, st func() erasure.CoderStats) {
	for _, m := range []struct {
		name, help string
		fn         func(erasure.CoderStats) int64
	}{
		{"sprout_erasure_encodes_total", "Erasure encode operations completed.", func(s erasure.CoderStats) int64 { return s.Encodes }},
		{"sprout_erasure_reconstructs_total", "Erasure reconstruct operations completed.", func(s erasure.CoderStats) int64 { return s.Reconstructs }},
		{"sprout_erasure_copy_only_decodes_total", "Reconstructs whose inputs held every systematic chunk: k copies, no GF(2^8) work.", func(s erasure.CoderStats) int64 { return s.CopyOnlyDecodes }},
		{"sprout_erasure_encoded_bytes_total", "Payload bytes encoded.", func(s erasure.CoderStats) int64 { return s.BytesEncoded }},
		{"sprout_erasure_reconstructed_bytes_total", "Payload bytes reconstructed.", func(s erasure.CoderStats) int64 { return s.BytesReconstructed }},
		{"sprout_erasure_plan_hits_total", "Decode-plan cache hits.", func(s erasure.CoderStats) int64 { return s.PlanHits }},
		{"sprout_erasure_plan_misses_total", "Decode-plan cache misses (matrix inversions paid).", func(s erasure.CoderStats) int64 { return s.PlanMisses }},
		{"sprout_erasure_parallel_ops_total", "Coding operations striped over the worker pool.", func(s erasure.CoderStats) int64 { return s.ParallelOps }},
		{"sprout_erasure_serial_ops_total", "Coding operations run inline on the caller.", func(s erasure.CoderStats) int64 { return s.SerialOps }},
	} {
		fn := m.fn
		counter(r, m.name, m.help, func() int64 { return fn(st()) })
	}
	gauge(r, "sprout_erasure_cached_plans", "Inverted decode matrices currently cached.",
		func() float64 { return float64(st().PlansCached) })
}

// registerTransport exposes both wire sides under one family set with a
// side label, so dashboards can overlay client and server views.
func registerTransport(r *metrics.Registry, client, server func() transport.TransportStats) {
	sides := make([]string, 0, 2)
	snaps := make([]func() transport.TransportStats, 0, 2)
	if client != nil {
		sides, snaps = append(sides, "client"), append(snaps, client)
	}
	if server != nil {
		sides, snaps = append(sides, "server"), append(snaps, server)
	}
	perSide := func(name, help string, fn func(transport.TransportStats) int64) {
		r.MustRegister(metrics.Desc{Name: name, Help: help, Kind: metrics.KindCounter, Labels: []string{"side"}},
			metrics.CollectorFunc(func() []metrics.Sample {
				out := make([]metrics.Sample, len(sides))
				for i := range sides {
					out[i] = metrics.Sample{LabelValues: []string{sides[i]}, Value: float64(fn(snaps[i]()))}
				}
				return out
			}))
	}
	r.MustRegister(metrics.Desc{
		Name: "sprout_transport_frames_total", Help: "Wire frames, by side and direction.",
		Kind: metrics.KindCounter, Labels: []string{"side", "direction"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		out := make([]metrics.Sample, 0, 2*len(sides))
		for i := range sides {
			s := snaps[i]()
			out = append(out,
				metrics.Sample{LabelValues: []string{sides[i], "sent"}, Value: float64(s.FramesSent)},
				metrics.Sample{LabelValues: []string{sides[i], "received"}, Value: float64(s.FramesReceived)})
		}
		return out
	}))
	r.MustRegister(metrics.Desc{
		Name: "sprout_transport_bytes_total", Help: "Wire bytes including length prefixes, by side and direction.",
		Kind: metrics.KindCounter, Labels: []string{"side", "direction"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		out := make([]metrics.Sample, 0, 2*len(sides))
		for i := range sides {
			s := snaps[i]()
			out = append(out,
				metrics.Sample{LabelValues: []string{sides[i], "sent"}, Value: float64(s.BytesSent)},
				metrics.Sample{LabelValues: []string{sides[i], "received"}, Value: float64(s.BytesReceived)})
		}
		return out
	}))
	perSide("sprout_transport_payload_bytes_by_reference_total", "Payload bytes handed to the kernel as the caller's or the store's own slice, never copied in user space.",
		func(s transport.TransportStats) int64 { return s.BytesByReference })
	perSide("sprout_transport_fetch_batches_total", "Batches of chunk requests a read sent itself, in one write (RemoteFetcher.StartFetches).",
		func(s transport.TransportStats) int64 { return s.FetchBatches })
	perSide("sprout_transport_async_fallbacks_total", "Chunk fetches of such batches that continued as blocking round trips: connection not up, busy or broken, or request shed.",
		func(s transport.TransportStats) int64 { return s.AsyncFallbacks })
	perSide("sprout_transport_requests_total", "Round trips started (client) or dispatched (server).",
		func(s transport.TransportStats) int64 { return s.Requests })
	perSide("sprout_transport_retries_total", "Round trips replayed after a broken connection.",
		func(s transport.TransportStats) int64 { return s.Retries })
	perSide("sprout_transport_retries_denied_total", "Retries refused by the retry budget.",
		func(s transport.TransportStats) int64 { return s.RetriesDenied })
	perSide("sprout_transport_overload_rejections_total", "Requests shed by the max-in-flight limit.",
		func(s transport.TransportStats) int64 { return s.OverloadRejections })
	perSide("sprout_transport_deadline_rejections_total", "Requests shed because their deadline had passed.",
		func(s transport.TransportStats) int64 { return s.DeadlineRejections })
	perSide("sprout_transport_decode_errors_total", "Malformed or truncated wire frames.",
		func(s transport.TransportStats) int64 { return s.DecodeErrors })
	perSide("sprout_transport_conns_opened_total", "TCP connections dialed (client) or accepted (server).",
		func(s transport.TransportStats) int64 { return s.ConnsOpened })
}

func registerRepair(r *metrics.Registry, st func() repair.Stats) {
	for _, m := range []struct {
		name, help string
		fn         func(repair.Stats) float64
	}{
		{"sprout_repair_scans_total", "Degradation scans run.", func(s repair.Stats) float64 { return float64(s.Scans) }},
		{"sprout_repair_enqueued_total", "Chunk repairs accepted into the queue.", func(s repair.Stats) float64 { return float64(s.Enqueued) }},
		{"sprout_repair_repaired_chunks_total", "Chunks reconstructed and re-placed.", func(s repair.Stats) float64 { return float64(s.ChunksRepaired) }},
		{"sprout_repair_repaired_bytes_total", "Bytes reconstructed by repair.", func(s repair.Stats) float64 { return float64(s.BytesRepaired) }},
		{"sprout_repair_busy_seconds_total", "Cumulative wall time spent reconstructing.", func(s repair.Stats) float64 { return s.RepairTime.Seconds() }},
		{"sprout_repair_skipped_total", "Queued chunks found healthy before repair.", func(s repair.Stats) float64 { return float64(s.Skipped) }},
		{"sprout_repair_deferred_total", "Chunks deferred for lack of k survivors.", func(s repair.Stats) float64 { return float64(s.Deferred) }},
		{"sprout_repair_failures_total", "Repair attempts that errored.", func(s repair.Stats) float64 { return float64(s.Failures) }},
		{"sprout_repair_retries_total", "Repairs re-enqueued after failures.", func(s repair.Stats) float64 { return float64(s.Retries) }},
	} {
		fn := m.fn
		r.MustRegister(metrics.Desc{Name: m.name, Help: m.help, Kind: metrics.KindCounter},
			metrics.CollectorFunc(func() []metrics.Sample {
				return []metrics.Sample{{Value: fn(st())}}
			}))
	}
	gauge(r, "sprout_repair_queue_objects", "Current repair queue depth.",
		func() float64 { return float64(st().QueueDepth) })
	gauge(r, "sprout_repair_inflight_objects", "Queued plus running repairs.",
		func() float64 { return float64(st().InFlight) })
	gauge(r, "sprout_repair_stalled_objects", "Chunks out of repair attempt budget.",
		func() float64 { return float64(st().Stalled) })
}

func registerOSDHealth(r *metrics.Registry, st func() []objstore.OSDHealth) {
	perOSD := func(name, help string, kind metrics.Kind, fn func(objstore.OSDHealth) float64) {
		r.MustRegister(metrics.Desc{Name: name, Help: help, Kind: kind, Labels: []string{"osd"}},
			metrics.CollectorFunc(func() []metrics.Sample {
				health := st()
				out := make([]metrics.Sample, len(health))
				for i, h := range health {
					out[i] = metrics.Sample{LabelValues: []string{strconv.Itoa(h.ID)}, Value: fn(h)}
				}
				return out
			}))
	}
	r.MustRegister(metrics.Desc{
		Name: "sprout_osd_state_info", Help: "OSD lifecycle state (value is always 1; the state label carries it).",
		Kind: metrics.KindGauge, Labels: []string{"osd", "state"},
	}, metrics.CollectorFunc(func() []metrics.Sample {
		health := st()
		out := make([]metrics.Sample, len(health))
		for i, h := range health {
			out[i] = metrics.Sample{LabelValues: []string{strconv.Itoa(h.ID), h.State.String()}, Value: 1}
		}
		return out
	}))
	perOSD("sprout_osd_served_total", "Chunk operations completed.", metrics.KindCounter,
		func(h objstore.OSDHealth) float64 { return float64(h.Served) })
	perOSD("sprout_osd_errors_total", "Chunk operations failed.", metrics.KindCounter,
		func(h objstore.OSDHealth) float64 { return float64(h.Errors) })
	perOSD("sprout_osd_busy_seconds_total", "Cumulative service time behind completed operations.", metrics.KindCounter,
		func(h objstore.OSDHealth) float64 { return h.Busy.Seconds() })
	perOSD("sprout_osd_stored_chunks", "Chunks currently stored.", metrics.KindGauge,
		func(h objstore.OSDHealth) float64 { return float64(h.Chunks) })
	perOSD("sprout_osd_lost_chunks", "Chunks lost to failures and not yet re-placed.", metrics.KindGauge,
		func(h objstore.OSDHealth) float64 { return float64(h.LostChunks) })
}

func registerChaos(r *metrics.Registry, st func() transport.ChaosStats) {
	for _, m := range []struct {
		name, help string
		fn         func(transport.ChaosStats) int64
	}{
		{"sprout_chaos_delays_total", "Latency injections applied.", func(s transport.ChaosStats) int64 { return s.DelaysInjected }},
		{"sprout_chaos_errors_total", "Error injections applied.", func(s transport.ChaosStats) int64 { return s.ErrorsInjected }},
		{"sprout_chaos_dropped_requests_total", "Requests black-holed by partitions.", func(s transport.ChaosStats) int64 { return s.RequestsDropped }},
		{"sprout_chaos_dropped_replies_total", "Replies black-holed by partitions.", func(s transport.ChaosStats) int64 { return s.RepliesDropped }},
		{"sprout_chaos_stalls_total", "Requests stalled past their deadline.", func(s transport.ChaosStats) int64 { return s.Stalls }},
		{"sprout_chaos_hung_conns_total", "Connections accepted then hung.", func(s transport.ChaosStats) int64 { return s.ConnsHung }},
	} {
		fn := m.fn
		counter(r, m.name, m.help, func() int64 { return fn(st()) })
	}
}
