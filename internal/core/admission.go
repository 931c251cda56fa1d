package core

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
	"time"

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

// AdmissionConfig tunes the controller's saturation gate. The gate scores
// pressure as max(inflight/MaxInFlight, p99/LatencyTarget) and degrades
// service in levels as the score rises:
//
//	level 1 (score ≥ NoHedgeAt):   hedged fetches are suppressed
//	level 2 (score ≥ CacheOnlyAt): background cache fills are suppressed
//	level 3 (score ≥ ShedAt):      reads of low-value files that need
//	                               storage fetches are shed (ErrSaturated)
//
// Cheap capacity is given up first (speculative hedges), then background
// work, and only then actual reads — and only the reads the plan values
// least. Cache-served reads always pass: shedding work the cache absorbs
// for free would reduce goodput without relieving storage.
type AdmissionConfig struct {
	// MaxInFlight is the in-flight read count considered full pressure.
	// Default 256.
	MaxInFlight int
	// LatencyTarget is the read p99 considered full pressure. Zero disables
	// the latency signal (queue depth alone drives the gate).
	LatencyTarget time.Duration
	// NoHedgeAt, CacheOnlyAt, ShedAt are the scores at which each brownout
	// level engages. Defaults 0.75, 1.0, 1.25.
	NoHedgeAt   float64
	CacheOnlyAt float64
	ShedAt      float64
	// Alpha is the EWMA weight of the p99 tracker. Default 0.2.
	Alpha float64
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.NoHedgeAt <= 0 {
		c.NoHedgeAt = 0.75
	}
	if c.CacheOnlyAt <= 0 {
		c.CacheOnlyAt = 1.0
	}
	if c.ShedAt <= 0 {
		c.ShedAt = 1.25
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = 0.2
	}
	return c
}

// admissionGate is the lock-free saturation tracker behind the brownout
// levels: an in-flight read counter plus a stochastic EWMA estimate of the
// read-latency p99.
type admissionGate struct {
	cfg      AdmissionConfig
	inflight atomic.Int64
	p99bits  atomic.Uint64 // math.Float64bits of the p99 estimate in ns
	// override, when ≥ 0, pins the brownout level: the saturation analyzer
	// drives it from windowed measurements instead of the gate's built-in
	// instantaneous score. -1 means the gate decides on its own.
	override atomic.Int32
}

func newAdmissionGate(cfg AdmissionConfig) *admissionGate {
	g := &admissionGate{cfg: cfg.withDefaults()}
	g.override.Store(-1)
	return g
}

// setOverride pins (level ≥ 0) or releases (level < 0) the brownout level.
func (g *admissionGate) setOverride(level int) {
	if level > 3 {
		level = 3
	}
	g.override.Store(int32(level))
}

func (g *admissionGate) enter() { g.inflight.Add(1) }

func (g *admissionGate) leave() { g.inflight.Add(-1) }

// observe folds one served-read latency into the p99 estimate using the
// asymmetric-EWMA quantile tracker: samples above the estimate pull it up
// with weight alpha, samples below push it down with weight alpha/99, so
// the estimate settles near the 99th percentile without keeping a
// histogram. The very first sample seeds the estimate directly — warming
// up from zero would take ~1/Alpha samples, leaving the latency signal
// blind exactly during a cold-start stampede. Shed reads are not observed —
// their fast failures would drag the estimate down and make the gate flap
// open.
func (g *admissionGate) observe(d time.Duration) {
	sample := float64(d)
	for {
		old := g.p99bits.Load()
		est := math.Float64frombits(old)
		var next float64
		switch {
		case old == 0:
			// Unseeded (Float64bits(0) == 0): adopt the first sample whole.
			next = sample
		case sample > est:
			next = est + g.cfg.Alpha*(sample-est)
		default:
			next = est + g.cfg.Alpha/99*(sample-est)
		}
		if g.p99bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// score is the saturation pressure: the worse of the queue-depth and
// latency signals.
func (g *admissionGate) score() float64 {
	s := float64(g.inflight.Load()) / float64(g.cfg.MaxInFlight)
	if g.cfg.LatencyTarget > 0 {
		if ls := math.Float64frombits(g.p99bits.Load()) / float64(g.cfg.LatencyTarget); ls > s {
			s = ls
		}
	}
	return s
}

// level maps the current score to a brownout level (0 = healthy). When the
// saturation analyzer has pinned a level, that wins.
func (g *admissionGate) level() int {
	if o := g.override.Load(); o >= 0 {
		return int(o)
	}
	switch s := g.score(); {
	case s >= g.cfg.ShedAt:
		return 3
	case s >= g.cfg.CacheOnlyAt:
		return 2
	case s >= g.cfg.NoHedgeAt:
		return 1
	default:
		return 0
	}
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

// lowValueFiles marks the bottom ⌊n/2⌋ files by planned arrival rate (ties
// broken by file ID) — the reads the deepest brownout level sheds first,
// because the plan assigns them the least latency value. Where no rates tie
// at the median those are exactly the files strictly below it; where ties
// swallow the bottom half (e.g. two files at identical rates) ranking still
// leaves level 3 something to shed under hard saturation.
func lowValueFiles(lambdas []float64) []bool {
	n := len(lambdas)
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(lambdas[a], lambdas[b]), a-b)
	})
	low := make([]bool, n)
	for _, f := range idx[:n/2] {
		low[f] = true
	}
	return low
}
