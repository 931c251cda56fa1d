package core

import (
	"sync/atomic"
	"time"

	"sprout/internal/metrics"
)

// counters are the controller's hot-path statistics. Everything is atomic:
// the read plane increments them without any lock.
type counters struct {
	reads           atomic.Int64
	chunksFromCache atomic.Int64
	chunksFromDisk  atomic.Int64
	cacheOnlyReads  atomic.Int64
	lazyFills       atomic.Int64
	planUpdates     atomic.Int64
	fillsEnqueued   atomic.Int64
	fillsDropped    atomic.Int64
	fillErrors      atomic.Int64
	hedgesLaunched  atomic.Int64
	hedgeWins       atomic.Int64
	fetchFailovers  atomic.Int64
	autoReplans     atomic.Int64
	replanErrors    atomic.Int64

	degradedReads     atomic.Int64
	cacheRescues      atomic.Int64
	membershipChanges atomic.Int64

	writes               atomic.Int64
	writeErrors          atomic.Int64
	writeBytes           atomic.Int64
	cacheInvalidations   atomic.Int64
	writeThroughChunks   atomic.Int64
	staleCacheReloads    atomic.Int64
	readRetries          atomic.Int64
	invalidationsApplied atomic.Int64
	invalidationsStale   atomic.Int64

	picksReordered   atomic.Int64
	breakerDemotions atomic.Int64
	brownoutReads    atomic.Int64
	hedgesSuppressed atomic.Int64
	fillsSuppressed  atomic.Int64
	shedReads        atomic.Int64
	priorityHedges   atomic.Int64
}

// Stats exposes counters for observability and the evaluation harness.
type Stats struct {
	Reads           int64
	ChunksFromCache int64
	ChunksFromDisk  int64
	LazyFills       int64
	PlanUpdates     int64

	// CacheOnlyReads counts reads served entirely from cached chunks.
	CacheOnlyReads int64
	// FillsEnqueued / FillsDropped count background materialisation jobs
	// accepted by and shed from the fill queue.
	FillsEnqueued int64
	FillsDropped  int64
	// FillErrors counts background fills that failed.
	FillErrors int64
	// HedgesLaunched counts extra fetches started by the hedge timer;
	// HedgeWins counts hedged fetches that supplied a winning chunk.
	HedgesLaunched int64
	HedgeWins      int64
	// FetchFailovers counts fetch failures that were retried against
	// another node holding a chunk of the file.
	FetchFailovers int64
	// AutoReplans counts plans triggered by the auto-replanner;
	// ReplanErrors counts auto-replans that failed.
	AutoReplans  int64
	ReplanErrors int64

	// DegradedReads counts reads that needed failover or succeeded while
	// fewer than k of the file's storage chunks were on live nodes.
	// CacheRescues is the subset served entirely from cached chunks while
	// storage alone could not have decoded the file.
	DegradedReads int64
	CacheRescues  int64
	// MembershipChanges counts SetNodeDown/SetNodeUp transitions applied.
	MembershipChanges int64

	// Writes counts Controller.Write ingests that committed; WriteErrors
	// counts writes that failed (storage write or cache-chunk generation);
	// WriteBytes is the committed payload volume.
	Writes      int64
	WriteErrors int64
	WriteBytes  int64
	// CacheInvalidations counts functional cache chunks evicted because
	// their file was overwritten (write-through refreshes, InvalidateVersion calls,
	// and stale caches detected by the read plane's version check).
	CacheInvalidations int64
	// WriteThroughChunks counts cache chunks installed directly from
	// just-written data, saving the storage round trip a lazy fill would pay.
	WriteThroughChunks int64
	// StaleCacheReloads counts reads that caught the cache serving chunks
	// from a superseded stripe version and dropped it; ReadRetries counts
	// read attempts repeated after any stripe-consistency violation.
	StaleCacheReloads int64
	ReadRetries       int64
	// InvalidationsApplied counts versioned peer invalidations that were
	// newer than the local stripe record and dropped cached state;
	// InvalidationsStale counts late or duplicate peer invalidations
	// discarded as no-ops by the version comparison.
	InvalidationsApplied int64
	InvalidationsStale   int64

	// PicksReordered counts reads whose fetched node set differs from the
	// plain Madow draw from π because the expected-work ranking put another
	// placement node ahead of a drawn one (a backlog on the drawn node, or on
	// a heterogeneous cluster a slower service mean).
	PicksReordered int64
	// BreakerDemotions counts fetch candidates pushed to the tail of the
	// candidate order because their node's circuit breaker was open.
	BreakerDemotions int64
	// BrownoutReads counts reads admitted while the saturation gate was at
	// any brownout level; HedgesSuppressed, FillsSuppressed, and ShedReads
	// break down what each level gave up — withheld hedge timers (level 1),
	// deferred background fills (level 2), and low-value reads rejected with
	// ErrSaturated (level 3).
	BrownoutReads    int64
	HedgesSuppressed int64
	FillsSuppressed  int64
	ShedReads        int64
	// PriorityHedges counts gold-tenant reads that kept their hedge timer
	// through brownout level 1.
	PriorityHedges int64
}

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Reads:           c.stats.reads.Load(),
		ChunksFromCache: c.stats.chunksFromCache.Load(),
		ChunksFromDisk:  c.stats.chunksFromDisk.Load(),
		LazyFills:       c.stats.lazyFills.Load(),
		PlanUpdates:     c.stats.planUpdates.Load(),
		CacheOnlyReads:  c.stats.cacheOnlyReads.Load(),
		FillsEnqueued:   c.stats.fillsEnqueued.Load(),
		FillsDropped:    c.stats.fillsDropped.Load(),
		FillErrors:      c.stats.fillErrors.Load(),
		HedgesLaunched:  c.stats.hedgesLaunched.Load(),
		HedgeWins:       c.stats.hedgeWins.Load(),
		FetchFailovers:  c.stats.fetchFailovers.Load(),
		AutoReplans:     c.stats.autoReplans.Load(),
		ReplanErrors:    c.stats.replanErrors.Load(),

		DegradedReads:     c.stats.degradedReads.Load(),
		CacheRescues:      c.stats.cacheRescues.Load(),
		MembershipChanges: c.stats.membershipChanges.Load(),

		Writes:             c.stats.writes.Load(),
		WriteErrors:        c.stats.writeErrors.Load(),
		WriteBytes:         c.stats.writeBytes.Load(),
		CacheInvalidations: c.stats.cacheInvalidations.Load(),
		WriteThroughChunks: c.stats.writeThroughChunks.Load(),
		StaleCacheReloads:  c.stats.staleCacheReloads.Load(),
		ReadRetries:        c.stats.readRetries.Load(),

		InvalidationsApplied: c.stats.invalidationsApplied.Load(),
		InvalidationsStale:   c.stats.invalidationsStale.Load(),

		PicksReordered:   c.stats.picksReordered.Load(),
		BreakerDemotions: c.stats.breakerDemotions.Load(),
		BrownoutReads:    c.stats.brownoutReads.Load(),
		HedgesSuppressed: c.stats.hedgesSuppressed.Load(),
		FillsSuppressed:  c.stats.fillsSuppressed.Load(),
		ShedReads:        c.stats.shedReads.Load(),
		PriorityHedges:   c.stats.priorityHedges.Load(),
	}
}

// readHist splits read latencies by how the read was served: entirely from
// cache, from healthy storage fetches, or degraded (failover used, or the
// read only succeeded because cached chunks covered for dead storage).
type readHist struct {
	cacheHit metrics.Histogram
	storage  metrics.Histogram
	degraded metrics.Histogram
}

func (h *readHist) observe(d time.Duration, cacheOnly, degraded bool) {
	switch {
	case degraded:
		h.degraded.Observe(d)
	case cacheOnly:
		h.cacheHit.Observe(d)
	default:
		h.storage.Observe(d)
	}
}

// ReadBuckets is the controller's read-latency histograms by serving class.
type ReadBuckets struct {
	// CacheHit covers healthy reads served entirely from cached chunks;
	// Storage covers healthy reads that fetched at least one chunk from
	// storage nodes; Degraded covers reads that failed over or were served
	// while fewer than k storage chunks were on live nodes.
	CacheHit metrics.HistogramBuckets
	Storage  metrics.HistogramBuckets
	Degraded metrics.HistogramBuckets
}

// ReadLatency returns the read-latency buckets split by cache hits versus
// healthy storage reads versus degraded reads; Snapshot gives quantiles.
func (c *Controller) ReadLatency() ReadBuckets {
	return ReadBuckets{
		CacheHit: c.hist.cacheHit.Buckets(),
		Storage:  c.hist.storage.Buckets(),
		Degraded: c.hist.degraded.Buckets(),
	}
}

// WriteLatency returns the buckets of Controller.Write latency end to end:
// storage write (encode, staged chunk fan-out, commit) plus the
// write-through cache refresh.
func (c *Controller) WriteLatency() metrics.HistogramBuckets {
	return c.writeHist.Buckets()
}

// NodeInFlight reports, by storage node ID, how many of this controller's
// chunk fetches are outstanding on the node right now — the backlog the read
// plane ranks fetch candidates by.
func (c *Controller) NodeInFlight() map[int]int64 {
	out := make(map[int]int64, len(c.nodeIdx))
	for id, pos := range c.nodeIdx {
		out[id] = c.nodeInFlight[pos].Load()
	}
	return out
}

// InFlightReads reports the number of reads currently inside the admission
// gate (0 when admission control is off).
func (c *Controller) InFlightReads() int64 {
	if c.adm == nil {
		return 0
	}
	return c.adm.inflight.Load()
}
