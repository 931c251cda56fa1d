package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// randomSamples draws n latencies spread log-uniformly over the histogram's
// range, so every bucket (the sub-µs and the overflow one included) is hit.
func randomSamples(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(math.Exp(rng.Float64() * math.Log(float64(300*time.Second))))
	}
	return out
}

func observeAll(samples []time.Duration) HistogramBuckets {
	var h Histogram
	for _, d := range samples {
		h.Observe(d)
	}
	return h.Buckets()
}

// bucketOf returns the bounds of the bucket d is counted in; the overflow
// bucket has no upper bound of its own.
func bucketOf(d time.Duration) (lo, hi time.Duration) {
	for b := 0; b < histBuckets-1; b++ {
		if lo, hi = bucketBounds(b); d < hi {
			return lo, hi
		}
	}
	lo, _ = bucketBounds(histBuckets - 1)
	return lo, math.MaxInt64
}

// TestHistogramQuantileWithinBucket: for random samples every estimated
// quantile lies in the bucket that holds the exact sample quantile, never
// above the observed maximum, and the summary is ordered.
func TestHistogramQuantileWithinBucket(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := randomSamples(rng, 1+rng.Intn(400))
		s := observeAll(samples)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		top := samples[len(samples)-1]
		if s.Count != int64(len(samples)) || time.Duration(s.MaxNS) != top {
			t.Fatalf("seed %d: count %d max %v, want %d %v", seed, s.Count, time.Duration(s.MaxNS), len(samples), top)
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
			lo, hi := bucketOf(exact)
			got := s.Quantile(q)
			if got < lo || got > hi || got > top {
				t.Fatalf("seed %d: Quantile(%v) = %v, want within [%v, %v] (exact %v) and ≤ max %v", seed, q, got, lo, hi, exact, top)
			}
		}
		sum := s.Snapshot()
		if sum.P50 > sum.P90 || sum.P90 > sum.P99 || sum.P99 > sum.Max || sum.Max != top {
			t.Fatalf("seed %d: summary out of order: %+v", seed, sum)
		}
	}
}

// TestHistogramAddSubRoundTrip: folding a snapshot in and taking it out again
// restores every count (MaxNS is an upper bound by design and may only grow).
func TestHistogramAddSubRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := observeAll(randomSamples(rng, rng.Intn(300)))
		b := observeAll(randomSamples(rng, rng.Intn(300)))
		got := a.Add(b).Sub(b)
		if got.Counts != a.Counts || got.Count != a.Count || got.SumNS != a.SumNS {
			t.Fatalf("seed %d: a.Add(b).Sub(b) = %+v, want %+v", seed, got, a)
		}
		if got.MaxNS < a.MaxNS {
			t.Fatalf("seed %d: MaxNS shrank from %d to %d", seed, a.MaxNS, got.MaxNS)
		}
	}
}

// TestHistogramOverflowClampsToMax: samples beyond the last bucket's range
// are all counted there, and every estimate stays at or below the slowest
// one observed instead of the bucket's synthetic upper bound.
func TestHistogramOverflowClampsToMax(t *testing.T) {
	lo, _ := bucketBounds(histBuckets - 1)
	samples := []time.Duration{lo, lo + time.Second, 200 * time.Second, 10 * time.Minute}
	s := observeAll(samples)
	if s.Counts[histBuckets-1] != int64(len(samples)) {
		t.Fatalf("overflow bucket holds %d of %d samples", s.Counts[histBuckets-1], len(samples))
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := s.Quantile(q); got < lo || got > 10*time.Minute {
			t.Fatalf("Quantile(%v) = %v, want within [%v, 10m]", q, got, lo)
		}
	}
	if got := s.Quantile(1); got != 10*time.Minute {
		t.Fatalf("Quantile(1) = %v, want the observed max", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Microsecond
		for pb.Next() {
			h.Observe(d)
			if d *= 2; d > time.Second {
				d = time.Microsecond
			}
		}
	})
}
