package core

import (
	"math"
	"sync/atomic"
	"time"

	"sprout/internal/metrics"
)

// AnalyzerConfig tunes the saturation analyzer: a collector goroutine that
// samples the admission gate's queue depth and the read-latency histograms
// into windowed rates, and drives the brownout level from those measurements
// instead of the gate's instantaneous score. Unlike the static gate, the
// analyzer sees a true windowed p99 (a histogram delta over the window, not
// an EWMA guess), and it applies hysteresis: the level changes at most once
// per Dwell, so brownout levels never flap with the noise of individual
// requests.
type AnalyzerConfig struct {
	// SampleInterval is the queue-depth sampling cadence. Default 25ms.
	SampleInterval time.Duration
	// Window is how much history one level decision is based on: every
	// Window the histogram delta and the mean sampled queue depth are folded
	// into a saturation score. Default 250ms.
	Window time.Duration
	// Dwell is the minimum time between applied level changes. Default 1s.
	Dwell time.Duration

	// MaxInFlight is the in-flight read count considered full pressure;
	// LatencyTarget the windowed read p99 considered full pressure. They
	// default to the admission gate's values.
	MaxInFlight   int
	LatencyTarget time.Duration
	// NoHedgeAt, CacheOnlyAt, ShedAt are the scores at which each brownout
	// level engages; they default to the admission gate's thresholds.
	NoHedgeAt   float64
	CacheOnlyAt float64
	ShedAt      float64
}

func (cfg AnalyzerConfig) withDefaults(gate AdmissionConfig) AnalyzerConfig {
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 25 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 250 * time.Millisecond
	}
	if cfg.Window < cfg.SampleInterval {
		cfg.Window = cfg.SampleInterval
	}
	if cfg.Dwell <= 0 {
		cfg.Dwell = time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = gate.MaxInFlight
	}
	if cfg.LatencyTarget <= 0 {
		cfg.LatencyTarget = gate.LatencyTarget
	}
	if cfg.NoHedgeAt <= 0 {
		cfg.NoHedgeAt = gate.NoHedgeAt
	}
	if cfg.CacheOnlyAt <= 0 {
		cfg.CacheOnlyAt = gate.CacheOnlyAt
	}
	if cfg.ShedAt <= 0 {
		cfg.ShedAt = gate.ShedAt
	}
	return cfg
}

// analyzer holds the saturation analyzer's state between windows.
type analyzer struct {
	cfg  AnalyzerConfig
	gate *admissionGate

	level     int
	lastShift time.Time
	shifted   bool // false until the first transition (no dwell before it)

	scoreBits atomic.Uint64 // last windowed score, for observability
}

func newAnalyzer(cfg AnalyzerConfig, gate *admissionGate) *analyzer {
	a := &analyzer{cfg: cfg.withDefaults(gate.cfg), gate: gate}
	// Pin level 0 immediately: from the first request on, the measured
	// windowed saturation decides — never the gate's static thresholds.
	gate.setOverride(0)
	return a
}

// desiredLevel maps a windowed saturation score to a brownout level.
func (a *analyzer) desiredLevel(score float64) int {
	switch {
	case score >= a.cfg.ShedAt:
		return 3
	case score >= a.cfg.CacheOnlyAt:
		return 2
	case score >= a.cfg.NoHedgeAt:
		return 1
	default:
		return 0
	}
}

// score folds one window's measurements into the saturation score: the
// worse of the queue-depth and windowed-p99 signals, each normalised by its
// target.
func (a *analyzer) score(meanInFlight float64, windowP99 time.Duration) float64 {
	s := meanInFlight / float64(a.cfg.MaxInFlight)
	if a.cfg.LatencyTarget > 0 {
		if ls := float64(windowP99) / float64(a.cfg.LatencyTarget); ls > s {
			s = ls
		}
	}
	a.scoreBits.Store(math.Float64bits(s))
	return s
}

// apply decides the level for this window and pins it on the gate. A level
// change is applied at most once per Dwell — in either direction — so the
// brownout level cannot oscillate faster than the dwell time no matter how
// noisy the per-window scores are. It returns the applied level and whether
// it changed.
func (a *analyzer) apply(now time.Time, score float64) (int, bool) {
	desired := a.desiredLevel(score)
	if desired == a.level {
		return a.level, false
	}
	if a.shifted && now.Sub(a.lastShift) < a.cfg.Dwell {
		return a.level, false
	}
	a.level = desired
	a.lastShift = now
	a.shifted = true
	a.gate.setOverride(desired)
	return desired, true
}

// registerAnalyzerJob installs the saturation analyzer on the shared
// scheduler: every SampleInterval it samples the gate's in-flight count;
// every Window it diffs the read-latency histograms, computes the windowed
// p99 and mean queue depth, scores the window, and applies the
// (dwell-limited) brownout level.
func (c *Controller) registerAnalyzerJob(a *analyzer) {
	windowTicks := int(a.cfg.Window / a.cfg.SampleInterval)
	if windowTicks < 1 {
		windowTicks = 1
	}
	prev := c.readBucketsTotal()
	var inflightSum int64
	ticks := 0
	c.registerJob(a.cfg.SampleInterval, func(now time.Time) {
		inflightSum += c.adm.inflight.Load()
		ticks++
		if ticks < windowTicks {
			return
		}
		cur := c.readBucketsTotal()
		delta := cur.Sub(prev)
		prev = cur
		var p99 time.Duration
		if delta.Count > 0 {
			p99 = delta.Quantile(0.99)
		}
		score := a.score(float64(inflightSum)/float64(ticks), p99)
		if _, changed := a.apply(now, score); changed {
			c.stats.analyzerShifts.Add(1)
		}
		inflightSum, ticks = 0, 0
	})
}

// readBucketsTotal folds the three read-latency classes into one
// distribution for the analyzer's windowed p99.
func (c *Controller) readBucketsTotal() metrics.HistogramBuckets {
	return c.hist.cacheHit.Buckets().
		Add(c.hist.storage.Buckets()).
		Add(c.hist.degraded.Buckets())
}

// AnalyzerScore reports the saturation analyzer's last windowed score, or
// NaN when the analyzer is not running.
func (c *Controller) AnalyzerScore() float64 {
	if c.analyzer == nil {
		return math.NaN()
	}
	return math.Float64frombits(c.analyzer.scoreBits.Load())
}
