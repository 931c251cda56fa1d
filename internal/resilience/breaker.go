package resilience

import (
	"context"
	"errors"
	"sync"
	"time"
)

// BreakerState is the position of one target's circuit breaker.
type BreakerState int

// Breaker states. Closed passes traffic and counts failures; Open rejects
// (the target is avoided, not declared dead); HalfOpen admits a bounded
// number of probes whose outcomes decide between Closed and Open.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a BreakerSet.
type BreakerConfig struct {
	// ErrorThreshold is the consecutive-failure streak that opens a
	// breaker. Default 5.
	ErrorThreshold int
	// LatencyThreshold, when positive, makes a successful observation
	// slower than this count as a failure: a node that answers but has
	// become pathologically slow should be avoided like one that errors.
	LatencyThreshold time.Duration
	// OpenFor is how long an opened breaker rejects before allowing
	// half-open probes. Re-opens after a failed probe double it, up to
	// 8×OpenFor. Default 1s.
	OpenFor time.Duration
}

const (
	// maxOpenGrowth caps the exponential re-open growth at this multiple of
	// OpenFor.
	maxOpenGrowth = 8
	// halfOpenProbes bounds concurrent probes admitted in half-open.
	halfOpenProbes = 2
)

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ErrorThreshold <= 0 {
		c.ErrorThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = time.Second
	}
	return c
}

// breaker is the per-target state machine.
type breaker struct {
	state   BreakerState
	streak  int           // consecutive failures while closed
	openFor time.Duration // current open duration (exponential on re-open)
	until   time.Time     // when an open breaker admits probes again
	entered time.Time     // when half-open was entered (stale-probe reset)
	probes  int           // probes admitted since entering half-open
}

// BreakerStats snapshots a BreakerSet's transition counters.
type BreakerStats struct {
	// Opens counts closed→open trips; Reopens counts half-open→open trips
	// after a failed probe; Closes counts recoveries to closed.
	Opens   int64
	Reopens int64
	Closes  int64
	// Probes counts admissions granted in half-open; Rejections counts
	// Allow calls refused by an open or probe-saturated breaker.
	Probes     int64
	Rejections int64
}

// BreakerSet is a family of circuit breakers keyed by an integer target
// (storage node / OSD ID). A breaker opens on a streak of failures or
// over-latency successes, rejects while open, and re-closes through a
// half-open probe phase. Breaker state means "avoid this target", which is
// deliberately weaker than the controller membership's Down ("this target
// is gone"): overload rejections count toward breakers — hammering a
// shedding node helps nobody — but must never count toward Down.
//
// All methods are safe for concurrent use. A nil *BreakerSet is valid and
// means "breakers disabled": Allow always admits and Observe is a no-op, so
// call sites need no nil checks.
type BreakerSet struct {
	cfg BreakerConfig
	now func() time.Time // test hook

	mu sync.Mutex
	m  map[int]*breaker

	opens, reopens, closes, probes, rejections int64
}

// NewBreakerSet builds an empty breaker family; breakers materialise
// lazily, closed, on first use.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), now: time.Now, m: make(map[int]*breaker)}
}

func (s *BreakerSet) get(target int) *breaker {
	b := s.m[target]
	if b == nil {
		b = &breaker{openFor: s.cfg.OpenFor}
		s.m[target] = b
	}
	return b
}

// Allow reports whether traffic should be sent to the target right now,
// admitting half-open probes as cooldowns expire. Callers that have no
// alternative target may still use a disallowed one — the breaker is
// advice to avoid, not a ban — and the outcome they Observe repairs or
// confirms the state either way.
func (s *BreakerSet) Allow(target int) bool {
	if s == nil {
		return true
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(target)
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Before(b.until) {
			s.rejections++
			return false
		}
		b.state = BreakerHalfOpen
		b.entered = now
		b.probes = 1
		s.probes++
		return true
	default: // half-open
		// Probes admitted long ago that never reported back (the read plane
		// enumerated the node as a candidate but completed without fetching
		// from it) must not wedge the breaker half-open forever.
		if now.Sub(b.entered) > b.openFor {
			b.entered = now
			b.probes = 0
		}
		if b.probes < halfOpenProbes {
			b.probes++
			s.probes++
			return true
		}
		s.rejections++
		return false
	}
}

// Observe records the outcome of one operation against the target. A
// failure is an error (overload rejections included) or, when a latency
// threshold is configured, a success slower than it. Context cancellation
// is usually ignored — an abandoned fetch (hedging, fastest-k) says
// nothing about the target — with one exception: a fetch that had already
// exceeded the latency threshold when it was abandoned counts as a slow
// observation. That is precisely the hedged-read signal: the slow node's
// fetch loses the race, is cancelled, and would otherwise never be
// observed at all, leaving a latency breaker blind to the one node it
// exists to catch. Successes close the breaker from any state.
func (s *BreakerSet) Observe(target int, err error, latency time.Duration) {
	if s == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		if s.cfg.LatencyThreshold <= 0 || latency <= s.cfg.LatencyThreshold {
			return
		}
		err = nil // overdue when abandoned: record as a slow observation
	}
	failed := err != nil ||
		(s.cfg.LatencyThreshold > 0 && latency > s.cfg.LatencyThreshold)
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(target)
	if !failed {
		b.streak = 0
		if b.state != BreakerClosed {
			b.state = BreakerClosed
			b.openFor = s.cfg.OpenFor
			b.probes = 0
			s.closes++
		}
		return
	}
	switch b.state {
	case BreakerClosed:
		b.streak++
		if b.streak >= s.cfg.ErrorThreshold {
			b.state = BreakerOpen
			b.until = now.Add(b.openFor)
			s.opens++
		}
	case BreakerHalfOpen:
		// The probe failed: back to open, with a longer cooldown.
		b.openFor = min(2*b.openFor, maxOpenGrowth*s.cfg.OpenFor)
		b.state = BreakerOpen
		b.until = now.Add(b.openFor)
		b.probes = 0
		s.reopens++
	case BreakerOpen:
		// A last-resort call failed while open; keep rejecting until the
		// existing cooldown expires.
	}
}

// Stats returns the cumulative transition counters.
func (s *BreakerSet) Stats() BreakerStats {
	if s == nil {
		return BreakerStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return BreakerStats{
		Opens:      s.opens,
		Reopens:    s.reopens,
		Closes:     s.closes,
		Probes:     s.probes,
		Rejections: s.rejections,
	}
}
