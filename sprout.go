// Package sprout is the public facade of the Sprout functional-caching
// library — a Go reproduction of "Sprout: A Functional Caching Approach to
// Minimize Service Latency in Erasure-Coded Storage" (ICDCS 2016).
//
// The facade re-exports what the examples under examples/ use to embed
// Sprout — describe a cluster, plan the functional cache with Algorithm 1,
// read through the per-compute-server controller, heal a pool with the
// repair manager — plus the two interfaces an embedder implements
// (ChunkFetcher, ObjectWriter) and the metrics hook. The examples are its
// contract: a name none of them needs is not re-exported. The machinery
// lives in the internal packages.
//
// Basic usage:
//
//	clu, _ := sprout.ClusterConfig{NumNodes: 12, NumFiles: 100, N: 7, K: 4,
//	    FileSize: 100 << 20, ServiceRates: sprout.PaperServiceRates()}.Build()
//	ctrl, _ := sprout.NewController(clu, 500, sprout.OptimizerOptions{}, 1)
//	plan, _ := ctrl.PlanTimeBin(clu.Lambdas())
//	data, _ := ctrl.Read(ctx, fileID, fetcher)
package sprout

import (
	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/metrics"
	"sprout/internal/objstore"
	"sprout/internal/obs"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/resilience"
)

// Re-exported types. Aliases keep the internal implementations and the
// public names identical, so the documented behaviour lives in one place.
type (
	// Controller is the per-compute-server Sprout cache controller.
	Controller = core.Controller
	// ChunkFetcher retrieves coded chunks from storage nodes.
	ChunkFetcher = core.ChunkFetcher
	// ObjectWriter stores a complete object for Controller.Write (the ingest
	// path); the transport's StripedWriter is the production implementation.
	ObjectWriter = core.ObjectWriter
	// ObjectWriterFunc adapts a function to the ObjectWriter interface.
	ObjectWriterFunc = core.ObjectWriterFunc
	// ServeOptions tunes the controller's concurrent serving path: hedged
	// fetches, background fill workers, and the adaptive loop
	// (ReplanInterval), which re-plans the cache when observed rates move.
	ServeOptions = core.ServeOptions

	// Cluster describes storage nodes, files and placement.
	Cluster = cluster.Cluster
	// ClusterConfig builds synthetic clusters.
	ClusterConfig = cluster.Config

	// OptimizerOptions tunes Algorithm 1.
	OptimizerOptions = optimizer.Options
	// Plan is the optimizer's per-time-bin output.
	Plan = optimizer.Plan
	// Problem is a cache-optimization instance.
	Problem = optimizer.Problem

	// ServiceDist is a service-time distribution (mean, second and third
	// moments plus a sampler).
	ServiceDist = queue.Dist

	// StoragePool is an erasure-coded pool with health-aware placement.
	StoragePool = objstore.Pool
	// RepairManager is the self-healing plane: degradation scans, a
	// fewest-survivors-first repair queue, and a bounded reconstruction
	// worker pool.
	RepairManager = repair.Manager
	// RepairConfig tunes the repair manager.
	RepairConfig = repair.Config

	// BreakerSet holds one circuit breaker per storage target. Wire it into
	// ServeOptions.Breakers and the read plane demotes tripped nodes out of
	// fetch, hedge, and repair-survivor selection.
	BreakerSet = resilience.BreakerSet
	// BreakerConfig tunes the breakers' trip thresholds and re-open backoff.
	BreakerConfig = resilience.BreakerConfig

	// MetricsRegistry holds registered metric families and renders them in
	// Prometheus text exposition format.
	MetricsRegistry = metrics.Registry
	// MetricsSources selects which planes an observability registry bridges;
	// nil fields are skipped.
	MetricsSources = obs.Sources
)

// OSD lifecycle states.
const (
	OSDUp         = objstore.StateUp
	OSDDown       = objstore.StateDown
	OSDRecovering = objstore.StateRecovering
)

// NewBreakerSet builds a per-target circuit breaker set for
// ServeOptions.Breakers.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet { return resilience.NewBreakerSet(cfg) }

// NewMetricsRegistry bridges the given planes into a metric registry; serve
// its Handler() at /metrics for Prometheus scraping. Collection happens at
// scrape time, so hot paths pay nothing for export.
func NewMetricsRegistry(src MetricsSources) *MetricsRegistry { return obs.NewRegistry(src) }

// NewController builds a Sprout controller for a cluster with a functional
// cache of cacheCapacity chunks and default serving options (parallel chunk
// fetches, two background fill workers, no hedging, no auto-replanning).
func NewController(clu *Cluster, cacheCapacity int, opts OptimizerOptions, seed int64) (*Controller, error) {
	return core.NewController(clu, cacheCapacity, opts, seed)
}

// NewControllerWith builds a Sprout controller with explicit serving
// options — hedged fetches, fill-worker sizing, and the adaptive loop that
// re-runs PlanTimeBin when the observed workload drifts or a file goes idle.
// It returns an error for a negative duration or count, a ReplanThreshold
// that is negative or not finite, or a tenant policy without a name.
func NewControllerWith(clu *Cluster, cacheCapacity int, opts OptimizerOptions, serve ServeOptions, seed int64) (*Controller, error) {
	return core.NewControllerWith(clu, cacheCapacity, opts, serve, seed)
}

// Optimize solves the cache-content optimization (Algorithm 1).
func Optimize(p *Problem, opts OptimizerOptions) (*Plan, error) {
	return optimizer.Optimize(p, opts)
}

// ProblemFromCluster converts a cluster description into an optimization
// problem with the given cache capacity (in chunks).
func ProblemFromCluster(clu *Cluster, cacheCapacity int) (*Problem, error) {
	return optimizer.FromCluster(clu, cacheCapacity)
}

// PaperServiceRates returns the 12 per-server service rates used in the
// paper's numerical section.
func PaperServiceRates() []float64 {
	return append([]float64(nil), cluster.PaperServiceRates...)
}

// Exponential returns an exponential service-time distribution with rate mu.
func Exponential(mu float64) ServiceDist { return queue.NewExponential(mu) }

// NewRepairManager builds the repair plane over a pool; call Start to
// launch its workers and periodic degradation scan.
func NewRepairManager(pool *StoragePool, cfg RepairConfig) *RepairManager {
	return repair.NewManager(pool, cfg)
}
