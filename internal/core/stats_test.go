package core

import (
	"testing"
	"time"

	"sprout/internal/metrics"
)

// TestHistogramQuantileOverflowClamped locks in the overflow-bucket fix: a
// windowed delta whose rank lands in the last bucket must report a latency
// anchored to the observed maximum, not the bucket's synthetic ~134s upper
// bound — that fabricated value fed the admission gate's window a p99 no
// read ever exhibited.
func TestHistogramQuantileOverflowClamped(t *testing.T) {
	// All mass in the overflow bucket with a recorded max just above its
	// lower bound: every quantile must stay within [lo, max].
	var s metrics.HistogramBuckets
	overflow := len(s.Counts) - 1
	lo := time.Duration(1<<(overflow-1)) * time.Microsecond
	hi := 2 * lo
	s.Counts[overflow] = 10
	s.Count = 10
	s.MaxNS = int64(lo + 3*time.Second)
	for _, q := range []float64{0.5, 0.99, 1.0} {
		got := s.Quantile(q)
		if got > time.Duration(s.MaxNS) {
			t.Fatalf("Quantile(%v) = %v, beyond observed max %v", q, got, time.Duration(s.MaxNS))
		}
		if got < lo {
			t.Fatalf("Quantile(%v) = %v, below the overflow bucket's lower bound %v", q, got, lo)
		}
	}

	// No recorded max (foreign snapshot): the overflow bucket must contribute
	// its lower bound, never interpolate toward the fabricated upper bound.
	s.MaxNS = 0
	if got := s.Quantile(0.99); got != lo {
		t.Fatalf("Quantile with no max = %v, want the bucket floor %v (upper bound is %v)", got, lo, hi)
	}
}

// TestHistogramWindowedDeltaCarriesMax drives the real snapshot path the
// read-latency exports use: one slow read in the overflow bucket must yield
// a p99 bounded by the observed latency, and so must a fold of classes.
func TestHistogramWindowedDeltaCarriesMax(t *testing.T) {
	var h metrics.Histogram
	slow := 90 * time.Second // lands in the overflow bucket (≥ ~67s)
	h.Observe(slow)
	delta := h.Buckets()
	if delta.Count != 1 {
		t.Fatalf("snapshot count = %d, want 1", delta.Count)
	}
	if got := delta.Quantile(0.99); got > slow {
		t.Fatalf("p99 = %v, want ≤ the observed %v", got, slow)
	}

	// Folding classes (Add) must keep the larger max.
	var h2 metrics.Histogram
	h2.Observe(time.Millisecond)
	sum := delta.Add(h2.Buckets())
	if got := sum.Quantile(1.0); got > slow {
		t.Fatalf("folded max quantile = %v, want ≤ %v", got, slow)
	}
	if sum.MaxNS != int64(slow) {
		t.Fatalf("folded MaxNS = %v, want %v", time.Duration(sum.MaxNS), slow)
	}
}
