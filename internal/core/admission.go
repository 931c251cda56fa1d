package core

import (
	"cmp"
	"slices"
	"sync/atomic"

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

// The saturation score at which each brownout level engages.
const (
	noHedgeAt   = 0.75
	cacheOnlyAt = 1.0
	shedAt      = 1.25
)

// AdmissionConfig tunes the controller's saturation gate. The gate scores
// pressure as inflight/MaxInFlight and degrades service in levels as the
// score rises:
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
	// Default 256; NewControllerWith rejects a negative value.
	MaxInFlight int
}

// admissionGate is the one saturation judge behind the brownout levels: an
// in-flight read counter.
type admissionGate struct {
	cfg      AdmissionConfig
	inflight atomic.Int64
}

func newAdmissionGate(cfg AdmissionConfig) *admissionGate {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	return &admissionGate{cfg: cfg}
}

func (g *admissionGate) enter() { g.inflight.Add(1) }

func (g *admissionGate) leave() { g.inflight.Add(-1) }

// score is the saturation pressure: in-flight reads over MaxInFlight.
func (g *admissionGate) score() float64 {
	return float64(g.inflight.Load()) / float64(g.cfg.MaxInFlight)
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
// MaxInFlight reads are in flight); 0 when admission control is off.
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
