package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets covers [1µs, ~134s] in power-of-two buckets (bucket 27 spans
// [2^26µs ≈ 67s, 2^27µs ≈ 134s)); slower observations land in the last
// bucket.
const histBuckets = 28

// Histogram is the lock-free log2 latency histogram every plane records
// into: bucket i counts observations in [2^(i-1), 2^i) microseconds (bucket
// 0 holds sub-µs observations, the final bucket overflows). The zero value
// is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sumNS.Add(int64(d))
	for {
		cur := h.maxNS.Load()
		if int64(d) <= cur || h.maxNS.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Buckets snapshots the histogram. Count is derived from the summed bucket
// loads rather than kept as a separate atomic: the buckets are loaded one by
// one, so an independent total could disagree with their sum under
// concurrent Observe, and the exposition's +Inf bucket (the sum) would then
// mismatch _count — exactly what strict parsers reject.
func (h *Histogram) Buckets() HistogramBuckets {
	var s HistogramBuckets
	for b := range s.Counts {
		s.Counts[b] = h.buckets[b].Load()
		s.Count += s.Counts[b]
	}
	s.SumNS = h.sumNS.Load()
	s.MaxNS = h.maxNS.Load()
	return s
}

// HistogramBuckets is one snapshot of a Histogram: Counts[i] is the number
// of observations in bucket i. Counts are cumulative over the histogram's
// lifetime; distributions fold bucket-wise (Add).
type HistogramBuckets struct {
	Counts [histBuckets]int64
	Count  int64
	SumNS  int64
	// MaxNS is the largest observation the histogram had seen at snapshot
	// time. Quantile uses it to keep overflow-bucket estimates anchored to
	// data that was actually observed.
	MaxNS int64
}

// Add returns the bucket-wise sum of two snapshots (for folding the
// cache-hit/storage/degraded classes, or several shards, into one
// distribution).
func (s HistogramBuckets) Add(o HistogramBuckets) HistogramBuckets {
	t := HistogramBuckets{Count: s.Count + o.Count, SumNS: s.SumNS + o.SumNS, MaxNS: max(s.MaxNS, o.MaxNS)}
	for i := range s.Counts {
		t.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return t
}

// bucketBounds returns the [lo, hi) latency range of bucket b.
func bucketBounds(b int) (lo, hi time.Duration) {
	if b == 0 {
		return 0, time.Microsecond
	}
	lo = time.Duration(1<<(b-1)) * time.Microsecond
	hi = time.Duration(1<<b) * time.Microsecond
	return lo, hi
}

// Quantile estimates the q-quantile of the (possibly windowed) distribution
// by interpolating inside the bucket holding the rank, clamped to the
// observed maximum so percentiles stay ordered. A rank that lands in the
// overflow bucket is anchored to that maximum rather than the bucket's
// synthetic ~134s upper bound — returning the bound would fabricate a
// latency no read ever exhibited (and, fed to the admission gate's window,
// slam the gate to its deepest brownout level). When no max was recorded the
// overflow bucket contributes its lower bound instead of its width.
func (s HistogramBuckets) Quantile(q float64) time.Duration {
	if s.Count <= 0 {
		return 0
	}
	top := time.Duration(s.MaxNS)
	rank := q * float64(s.Count)
	var cum float64
	for b := 0; b < histBuckets; b++ {
		n := float64(s.Counts[b])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(b)
			if b == histBuckets-1 {
				hi = top
				if hi < lo {
					hi = lo
				}
			}
			v := lo + time.Duration((rank-cum)/n*float64(hi-lo))
			if top > 0 && v > top {
				v = top
			}
			return v
		}
		cum += n
	}
	// Rank beyond the counted mass (float rounding): the distribution's top.
	if top > 0 {
		return top
	}
	for b := histBuckets - 1; b >= 0; b-- {
		if s.Counts[b] > 0 {
			_, hi := bucketBounds(b)
			return hi
		}
	}
	return 0
}

// LatencySnapshot summarises one latency distribution.
type LatencySnapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot summarises the distribution.
func (s HistogramBuckets) Snapshot() LatencySnapshot {
	out := LatencySnapshot{Count: s.Count, Max: time.Duration(s.MaxNS)}
	if s.Count > 0 {
		out.Mean = time.Duration(s.SumNS / s.Count)
		out.P50 = s.Quantile(0.50)
		out.P90 = s.Quantile(0.90)
		out.P99 = s.Quantile(0.99)
	}
	return out
}

// HistValue converts the snapshot into the exposition shape: per-bucket
// counts, sum in seconds, and the log2 layout's upper bounds in seconds —
// 2^i µs for i in [0, histBuckets-1), the final bucket being the +Inf
// overflow. Its Count is the bucket sum, so _count always equals the +Inf
// bucket.
func (s HistogramBuckets) HistValue() *HistValue {
	v := &HistValue{
		UpperBounds: make([]float64, histBuckets-1),
		Counts:      make([]uint64, histBuckets),
		Count:       uint64(s.Count),
		Sum:         float64(s.SumNS) / 1e9,
	}
	for i := range v.UpperBounds {
		v.UpperBounds[i] = float64(uint64(1)<<uint(i)) / 1e6
	}
	for i, n := range s.Counts {
		if n > 0 {
			v.Counts[i] = uint64(n)
		}
	}
	return v
}
