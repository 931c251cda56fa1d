// Package sprout is the public facade of the Sprout functional-caching
// library — a Go reproduction of "Sprout: A Functional Caching Approach to
// Minimize Service Latency in Erasure-Coded Storage" (ICDCS 2016).
//
// The facade re-exports the pieces a downstream user needs to embed Sprout:
// the erasure coder with functional cache-chunk generation, the latency
// model and cache optimizer, the per-compute-server controller, and the
// workload/cluster description types. The heavy machinery lives in the
// internal packages; this package keeps the surface small and stable.
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
	"context"

	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/metrics"
	"sprout/internal/objstore"
	"sprout/internal/obs"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/resilience"
	"sprout/internal/transport"
)

// Re-exported core types. Aliases keep the internal implementations and the
// public names identical, so the documented behaviour lives in one place.
type (
	// Controller is the per-compute-server Sprout cache controller.
	Controller = core.Controller
	// ChunkFetcher retrieves coded chunks from storage nodes.
	ChunkFetcher = core.ChunkFetcher
	// FetcherFunc adapts a function to the ChunkFetcher interface.
	FetcherFunc = core.FetcherFunc
	// VersionedChunkFetcher is a ChunkFetcher that reports the stripe version
	// each chunk belongs to, letting the controller detect concurrent
	// overwrites instead of decoding mixed-version stripes.
	VersionedChunkFetcher = core.VersionedChunkFetcher
	// StripeInfo names one committed stripe: object version and byte size.
	StripeInfo = core.StripeInfo
	// ObjectWriter stores a complete object for Controller.Write (the ingest
	// path); the transport's StripedWriter is the production implementation.
	ObjectWriter = core.ObjectWriter
	// ObjectWriterFunc adapts a function to the ObjectWriter interface.
	ObjectWriterFunc = core.ObjectWriterFunc
	// FileMeta describes one erasure-coded file.
	FileMeta = core.FileMeta
	// ControllerStats are the controller's observability counters.
	ControllerStats = core.Stats
	// ServeOptions tunes the controller's concurrent serving path: hedged
	// fetches, background fill workers, and the adaptive loop
	// (ReplanInterval), which re-plans the cache when observed rates move.
	ServeOptions = core.ServeOptions
	// LatencySnapshot summarises one read-latency distribution (p50/p90/p99).
	LatencySnapshot = metrics.LatencySnapshot
	// ReadLatencyStats splits read-latency percentiles by cache hits versus
	// reads that touched storage.
	ReadLatencyStats = core.ReadLatencyStats

	// Cluster describes storage nodes, files and placement.
	Cluster = cluster.Cluster
	// ClusterConfig builds synthetic clusters.
	ClusterConfig = cluster.Config
	// Node is one storage server.
	Node = cluster.Node
	// File is one erasure-coded file in a cluster.
	File = cluster.File

	// Code is a systematic Reed-Solomon code with reserved functional cache
	// chunks.
	Code = erasure.Code
	// Chunk pairs a coded chunk with its index.
	Chunk = erasure.Chunk

	// OptimizerOptions tunes Algorithm 1.
	OptimizerOptions = optimizer.Options
	// Plan is the optimizer's per-time-bin output.
	Plan = optimizer.Plan
	// Problem is a cache-optimization instance.
	Problem = optimizer.Problem
	// FileSpec describes a file inside a Problem.
	FileSpec = optimizer.FileSpec
	// TenantShare is one tenant's slice of the cache-optimization problem:
	// the files it owns and its weight in the budget split.
	TenantShare = optimizer.TenantShare

	// ServiceDist is a service-time distribution (mean, second and third
	// moments plus a sampler).
	ServiceDist = queue.Dist

	// StorageCluster is the emulated Ceph-like object-store cluster: OSDs
	// with lifecycle states, erasure-coded pools, and the cache tiers.
	StorageCluster = objstore.Cluster
	// StorageConfig describes an emulated storage cluster.
	StorageConfig = objstore.ClusterConfig
	// StoragePool is an erasure-coded pool with health-aware placement.
	StoragePool = objstore.Pool
	// OSD is one emulated object storage daemon.
	OSD = objstore.OSD
	// OSDState is an OSD lifecycle state (Up, Down, Recovering).
	OSDState = objstore.NodeState
	// OSDHealth is a snapshot of one OSD's lifecycle and health counters.
	OSDHealth = objstore.OSDHealth
	// ChunkLocation is the health-aware placement view of one coded chunk.
	ChunkLocation = objstore.ChunkLocation
	// DegradedObject describes an object with unreadable chunks.
	DegradedObject = objstore.DegradedObject

	// RepairManager is the self-healing plane: degradation scans, a
	// fewest-survivors-first repair queue, and a bounded reconstruction
	// worker pool.
	RepairManager = repair.Manager
	// RepairConfig tunes the repair manager.
	RepairConfig = repair.Config
	// RepairStats is a snapshot of the repair plane's progress counters.
	RepairStats = repair.Stats

	// TransportStats is a snapshot of a transport client's or server's
	// data-plane counters.
	TransportStats = transport.TransportStats
	// StripedWriter is the client-side ingest path: local SIMD encode,
	// parallel staged chunk writes over pooled connections, two-phase commit.
	StripedWriter = transport.StripedWriter

	// BreakerSet holds one circuit breaker per storage target. Wire it into
	// ServeOptions.Breakers and the read plane demotes tripped nodes out of
	// fetch, hedge, and repair-survivor selection.
	BreakerSet = resilience.BreakerSet
	// BreakerConfig tunes the breakers' trip thresholds and re-open backoff.
	BreakerConfig = resilience.BreakerConfig
	// BreakerState is a breaker's position in the closed → open → half-open
	// cycle.
	BreakerState = resilience.BreakerState
	// BreakerStats counts trips, closes, and rejected probes across a set.
	BreakerStats = resilience.BreakerStats
	// RetryBudget caps cluster-wide retry amplification: retries spend
	// tokens that only successful first attempts replenish.
	RetryBudget = resilience.RetryBudget
	// Backoff is capped exponential backoff with full jitter.
	Backoff = resilience.Backoff
	// AdmissionConfig tunes the controller's saturation gate: in-flight reads
	// and, with a latency target, the read p99 of each 250 ms window score
	// into progressive brownout levels.
	AdmissionConfig = core.AdmissionConfig
	// TenantPolicy is one tenant's QoS contract: SLO class, weighted-fair
	// share, optional rate limit, and the files whose cache budget it owns.
	// Wire a set into ServeOptions.Tenants to make tenancy first-class across
	// the read plane, fill scheduler, and optimizer.
	TenantPolicy = core.TenantPolicy
	// TenantSnapshot is one tenant's QoS accounting (reads, sheds, throttles,
	// latency distribution, cache share), from Controller.TenantStats.
	TenantSnapshot = core.TenantSnapshot

	// MetricsRegistry holds registered metric families and renders them in
	// Prometheus text exposition format.
	MetricsRegistry = metrics.Registry
	// MetricsSources selects which planes an observability registry bridges;
	// nil fields are skipped.
	MetricsSources = obs.Sources

	// Chaos injects per-OSD latency, errors, stalls, and partitions into a
	// transport server, runtime-controllable via SetRule/ClearRule.
	Chaos = transport.Chaos
	// ChaosRule is one OSD's fault injection rule.
	ChaosRule = transport.ChaosRule
	// ChaosStats counts the faults a Chaos harness has injected.
	ChaosStats = transport.ChaosStats
)

// OSD lifecycle states.
const (
	OSDUp         = objstore.StateUp
	OSDDown       = objstore.StateDown
	OSDRecovering = objstore.StateRecovering
)

// Circuit-breaker states.
const (
	BreakerClosed   = resilience.BreakerClosed
	BreakerOpen     = resilience.BreakerOpen
	BreakerHalfOpen = resilience.BreakerHalfOpen
)

// Tenant SLO classes, ordered by how the QoS plane degrades them under
// pressure: gold keeps hedging and is never shed, silver sheds only its
// low-value files at the deepest brownout level, bronze sheds first.
const (
	ClassGold     = core.ClassGold
	ClassSilver   = core.ClassSilver
	ClassBronze   = core.ClassBronze
	DefaultTenant = core.DefaultTenant
)

// Resilience sentinels.
var (
	// ErrSaturated is returned by Controller.Read when the admission gate
	// sheds a low-value read under deep saturation. It unwraps to
	// ErrOverload.
	ErrSaturated = core.ErrSaturated
	// ErrOverload classifies push-back (server overload responses, retry
	// budget exhaustion, admission sheds) apart from real faults: overload
	// must count against breakers and retry budgets, never against
	// membership.
	ErrOverload = resilience.ErrOverload
)

// WithTenant returns a context carrying the tenant name; Controller.Read
// resolves it against ServeOptions.Tenants for SLO-ordered shedding, priority
// hedging, and per-tenant accounting.
func WithTenant(ctx context.Context, name string) context.Context {
	return core.WithTenant(ctx, name)
}

// TenantFrom extracts the tenant name from a context ("" when absent).
func TenantFrom(ctx context.Context) string { return core.TenantFrom(ctx) }

// IsOverload reports whether err is load push-back rather than a fault.
func IsOverload(err error) bool { return resilience.IsOverload(err) }

// NewBreakerSet builds a per-target circuit breaker set for
// ServeOptions.Breakers.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet { return resilience.NewBreakerSet(cfg) }

// NewMetricsRegistry bridges the given planes into a metric registry; serve
// its Handler() at /metrics for Prometheus scraping. Collection happens at
// scrape time, so hot paths pay nothing for export.
func NewMetricsRegistry(src MetricsSources) *MetricsRegistry { return obs.NewRegistry(src) }

// NewRetryBudget builds a retry budget: up to maxTokens banked retries,
// refilled at ratio tokens per successful first attempt.
func NewRetryBudget(maxTokens, ratio float64) *RetryBudget {
	return resilience.NewRetryBudget(maxTokens, ratio)
}

// NewChaos builds a fault-injection harness to hang off a transport
// server's ServerConfig.Chaos.
func NewChaos(seed int64) *Chaos { return transport.NewChaos(seed) }

// NewController builds a Sprout controller for a cluster with a functional
// cache of cacheCapacity chunks and default serving options (parallel chunk
// fetches, two background fill workers, no hedging, no auto-replanning).
func NewController(clu *Cluster, cacheCapacity int, opts OptimizerOptions, seed int64) (*Controller, error) {
	return core.NewController(clu, cacheCapacity, opts, seed)
}

// NewControllerWith builds a Sprout controller with explicit serving
// options — hedged fetches, fill-worker sizing, and the adaptive loop that
// re-runs PlanTimeBin when the observed workload drifts or a file goes idle.
func NewControllerWith(clu *Cluster, cacheCapacity int, opts OptimizerOptions, serve ServeOptions, seed int64) (*Controller, error) {
	return core.NewControllerWith(clu, cacheCapacity, opts, serve, seed)
}

// NewCode creates an (n, k) storage code with k reserved functional cache
// chunks — an (n+k, k) MDS code overall.
func NewCode(n, k int) (*Code, error) { return erasure.New(n, k) }

// Optimize solves the cache-content optimization (Algorithm 1).
func Optimize(p *Problem, opts OptimizerOptions) (*Plan, error) {
	return optimizer.Optimize(p, opts)
}

// OptimizeSplit solves the cache-content optimization per tenant over a
// weighted partition of the cache budget and merges the plans; the
// controller uses it automatically when ServeOptions.Tenants lists files.
func OptimizeSplit(p *Problem, opts OptimizerOptions, shares []TenantShare) (*Plan, error) {
	return optimizer.OptimizeSplit(p, opts, shares)
}

// ProblemFromCluster converts a cluster description into an optimization
// problem with the given cache capacity (in chunks).
func ProblemFromCluster(clu *Cluster, cacheCapacity int) (*Problem, error) {
	return optimizer.FromCluster(clu, cacheCapacity)
}

// PaperConfig returns the cluster configuration used throughout the paper's
// simulations: 12 heterogeneous servers, 1000 files, (7,4) code, 100 MB
// files.
func PaperConfig() ClusterConfig { return cluster.PaperConfig() }

// PaperServiceRates returns the 12 per-server service rates used in the
// paper's numerical section.
func PaperServiceRates() []float64 {
	return append([]float64(nil), cluster.PaperServiceRates...)
}

// Exponential returns an exponential service-time distribution with rate mu.
func Exponential(mu float64) ServiceDist { return queue.NewExponential(mu) }

// NewStorageCluster builds an emulated object-store cluster.
func NewStorageCluster(cfg StorageConfig) (*StorageCluster, error) {
	return objstore.NewCluster(cfg)
}

// NewRepairManager builds the repair plane over a pool; call Start to
// launch its workers and periodic degradation scan.
func NewRepairManager(pool *StoragePool, cfg RepairConfig) *RepairManager {
	return repair.NewManager(pool, cfg)
}
