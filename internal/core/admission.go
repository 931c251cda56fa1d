package core

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"sprout/internal/metrics"
	"sprout/internal/resilience"
)

// saturatedError is ErrSaturated's concrete type; it unwraps to
// resilience.ErrOverload so a saturation shed classifies as load shedding
// (never counted against node health, retryable by patient callers).
type saturatedError struct{}

func (saturatedError) Error() string { return "core: controller saturated, read shed" }
func (saturatedError) Unwrap() error { return resilience.ErrOverload }

// ErrSaturated is returned by Read when the admission gate is in its
// deepest brownout level and the read was shed: it targeted a low-value
// file and could not be served from cache alone.
var ErrSaturated error = saturatedError{}

// The saturation score at which each brownout level engages, and the window
// the latency signal's p99 is measured over.
const (
	noHedgeAt        = 0.75
	cacheOnlyAt      = 1.0
	shedAt           = 1.25
	saturationWindow = 250 * time.Millisecond
)

// AdmissionConfig tunes the controller's saturation gate. The gate scores
// pressure as max(inflight/MaxInFlight, window p99/LatencyTarget), where the
// window p99 is the read-latency p99 of the last 250 ms, and degrades service
// in levels as the score rises:
//
//	level 1 (score ≥ 0.75): hedged fetches are suppressed
//	level 2 (score ≥ 1.0):  background cache fills are suppressed
//	level 3 (score ≥ 1.25): reads of low-value files that need storage
//	                        fetches are shed (ErrSaturated)
//
// Cheap capacity is given up first (speculative hedges), then background
// work, and only then actual reads — and only the reads the plan values
// least. Cache-served reads always pass: shedding work the cache absorbs
// for free would reduce goodput without relieving storage.
type AdmissionConfig struct {
	// MaxInFlight is the in-flight read count considered full pressure.
	// Default 256.
	MaxInFlight int
	// LatencyTarget is the window read p99 considered full pressure. Zero
	// disables the latency signal (queue depth alone drives the gate).
	// NewControllerWith rejects a negative value for either field.
	LatencyTarget time.Duration
}

// admissionGate is the one saturation judge behind the brownout levels: an
// in-flight read counter, plus — when a latency target is set — the read
// p99 of the last window, folded by the controller's window job.
type admissionGate struct {
	cfg      AdmissionConfig
	inflight atomic.Int64
	p99      atomic.Int64 // last window's read p99 in ns
	// window is the cumulative read-latency distribution at the last fold;
	// only the window job touches it.
	window metrics.HistogramBuckets
}

func newAdmissionGate(cfg AdmissionConfig) *admissionGate {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	return &admissionGate{cfg: cfg}
}

func (g *admissionGate) enter() { g.inflight.Add(1) }

func (g *admissionGate) leave() { g.inflight.Add(-1) }

// fold closes one window: the p99 of the reads observed since the previous
// fold (cur minus the distribution at that fold) becomes the latency signal.
// A window without reads reports 0.
func (g *admissionGate) fold(cur metrics.HistogramBuckets) {
	g.p99.Store(int64(cur.Sub(g.window).Quantile(0.99)))
	g.window = cur
}

// score is the saturation pressure: the worse of the queue-depth and
// latency signals.
func (g *admissionGate) score() float64 {
	s := float64(g.inflight.Load()) / float64(g.cfg.MaxInFlight)
	if g.cfg.LatencyTarget > 0 {
		s = max(s, float64(g.p99.Load())/float64(g.cfg.LatencyTarget))
	}
	return s
}

// level maps the current score to a brownout level (0 = healthy).
func (g *admissionGate) level() int { return brownoutLevel(g.score()) }

func brownoutLevel(score float64) int {
	switch {
	case score >= shedAt:
		return 3
	case score >= cacheOnlyAt:
		return 2
	case score >= noHedgeAt:
		return 1
	default:
		return 0
	}
}

// registerWindowJob installs the latency signal's measurement on the
// controller's scheduler: every saturationWindow the read-latency histograms'
// delta is folded into the gate's window p99.
func (c *Controller) registerWindowJob() {
	c.registerJob(saturationWindow, func(time.Time) { c.adm.fold(c.readBucketsTotal()) })
}

// readBucketsTotal folds the three read-latency classes into one
// distribution for the gate's window p99.
func (c *Controller) readBucketsTotal() metrics.HistogramBuckets {
	return c.hist.cacheHit.Buckets().
		Add(c.hist.storage.Buckets()).
		Add(c.hist.degraded.Buckets())
}

// SaturationLevel reports the admission gate's current brownout level:
// 0 healthy, 1 hedging suppressed, 2 background fills suppressed, 3 shedding
// low-value storage reads. Always 0 when admission control is off.
func (c *Controller) SaturationLevel() int {
	if c.adm == nil {
		return 0
	}
	return c.adm.level()
}

// SaturationScore reports the gate's raw pressure score (≥ 1 means at least
// one signal is past its target); 0 when admission control is off.
func (c *Controller) SaturationScore() float64 {
	if c.adm == nil {
		return 0
	}
	return c.adm.score()
}

// lowValueFiles marks the reads the deepest brownout level sheds first,
// because the plan assigns them the least latency value: every file with
// no planned arrivals, plus the bottom ⌊m/2⌋ of the m files with a positive
// rate (ties broken by file ID). Zero-rate files are set apart because a
// sharded controller is planned over a masked vector — zeros for the files
// other shards own — and ranking those with the rest would spend the whole
// bottom half on files it never serves. Among the served files, where no
// rates tie at the median the marked ones are exactly those strictly below
// it; where ties swallow the bottom half (e.g. two files at identical rates)
// ranking still leaves level 3 something to shed under hard saturation.
func lowValueFiles(lambdas []float64) []bool {
	n := len(lambdas)
	if n == 0 {
		return nil
	}
	low := make([]bool, n)
	served := make([]int, 0, n)
	for f, l := range lambdas {
		if l > 0 {
			served = append(served, f)
		} else {
			low[f] = true
		}
	}
	slices.SortFunc(served, func(a, b int) int {
		return cmp.Or(cmp.Compare(lambdas[a], lambdas[b]), a-b)
	})
	for _, f := range served[:len(served)/2] {
		low[f] = true
	}
	return low
}
