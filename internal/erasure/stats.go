package erasure

import "sync/atomic"

// CoderStats is a snapshot of a Code's data-plane counters. Byte counts
// measure payload (k * chunk size) so dividing by wall time gives the
// application-visible coding throughput.
type CoderStats struct {
	// Encodes and Reconstructs count completed operations.
	Encodes      int64
	Reconstructs int64
	// CopyOnlyDecodes counts the reconstructs whose inverse was all unit
	// rows — every systematic chunk was among the inputs (a fully cached
	// file, or a storage read that fetched chunks 0..k-1), so the decode was
	// k copies and no GF(2^8) work.
	CopyOnlyDecodes int64
	// BytesEncoded and BytesReconstructed are cumulative payload bytes.
	BytesEncoded       int64
	BytesReconstructed int64
	// PlanHits and PlanMisses count decode-plan cache outcomes; PlansCached
	// is the current number of cached inverted matrices.
	PlanHits    int64
	PlanMisses  int64
	PlansCached int
	// ParallelOps and SerialOps count coding operations that ran striped
	// over the worker pool versus inline on the calling goroutine.
	ParallelOps int64
	SerialOps   int64
}

// Add returns the element-wise sum of two snapshots, for aggregating
// stats across pools.
func (s CoderStats) Add(o CoderStats) CoderStats {
	return CoderStats{
		Encodes:            s.Encodes + o.Encodes,
		Reconstructs:       s.Reconstructs + o.Reconstructs,
		CopyOnlyDecodes:    s.CopyOnlyDecodes + o.CopyOnlyDecodes,
		BytesEncoded:       s.BytesEncoded + o.BytesEncoded,
		BytesReconstructed: s.BytesReconstructed + o.BytesReconstructed,
		PlanHits:           s.PlanHits + o.PlanHits,
		PlanMisses:         s.PlanMisses + o.PlanMisses,
		PlansCached:        s.PlansCached + o.PlansCached,
		ParallelOps:        s.ParallelOps + o.ParallelOps,
		SerialOps:          s.SerialOps + o.SerialOps,
	}
}

// coderCounters holds the live atomic counters embedded in a Code.
type coderCounters struct {
	encodes            atomic.Int64
	reconstructs       atomic.Int64
	copyOnlyDecodes    atomic.Int64
	bytesEncoded       atomic.Int64
	bytesReconstructed atomic.Int64
	parallelOps        atomic.Int64
	serialOps          atomic.Int64
}

func (c *coderCounters) countOp(parallel bool) {
	if parallel {
		c.parallelOps.Add(1)
	} else {
		c.serialOps.Add(1)
	}
}

// Stats returns a consistent-enough snapshot of the coder's counters.
func (c *Code) Stats() CoderStats {
	return CoderStats{
		Encodes:            c.counters.encodes.Load(),
		Reconstructs:       c.counters.reconstructs.Load(),
		CopyOnlyDecodes:    c.counters.copyOnlyDecodes.Load(),
		BytesEncoded:       c.counters.bytesEncoded.Load(),
		BytesReconstructed: c.counters.bytesReconstructed.Load(),
		PlanHits:           c.plans.hits.Load(),
		PlanMisses:         c.plans.misses.Load(),
		PlansCached:        c.plans.len(),
		ParallelOps:        c.counters.parallelOps.Load(),
		SerialOps:          c.counters.serialOps.Load(),
	}
}
