package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the error surfaced to clients for faults injected by the
// chaos harness. It deliberately does not wrap resilience.ErrOverload: an
// injected fault models a broken node, so breakers are supposed to count
// it.
var ErrInjected = errors.New("chaos: injected fault")

// ChaosRule describes the misbehaviour injected for one target OSD. A rule
// composes: added latency applies first, then partitions, then the error
// rate.
type ChaosRule struct {
	// Latency is added to every chunk request for the target; Jitter adds a
	// further uniform [0, Jitter) on top, so injected delays decorrelate.
	Latency time.Duration
	Jitter  time.Duration
	// Stall additionally holds each request for this long before it
	// proceeds — long stalls emulate a node that accepted work and went
	// quiet, forcing clients to burn their deadline rather than fail fast.
	Stall time.Duration
	// ErrorRate in [0,1] is the probability a request is answered with an
	// injected fault instead of being executed.
	ErrorRate float64
	// DropRequests silently discards requests for the target (the client
	// never hears back — the request half of an asymmetric partition).
	// DropReplies executes the request but discards the response (the reply
	// half: server-side effects happen, the client still times out).
	DropRequests bool
	DropReplies  bool
}

// ChaosStats counts the faults a Chaos instance has injected.
type ChaosStats struct {
	DelaysInjected  int64
	ErrorsInjected  int64
	RequestsDropped int64
	RepliesDropped  int64
	Stalls          int64
	ConnsHung       int64
}

// chaos verdicts: what decide tells the worker to do with a request.
type chaosVerdict int

const (
	chaosPass chaosVerdict = iota
	chaosInjectError
	chaosDropRequest
	chaosDropReply
)

// Chaos injects network misbehaviour into a transport server: per-OSD
// latency distributions, error rates, stalls, and asymmetric partitions on
// the request path, plus accept-then-hang connections at the listener. It
// is wired in via ServerConfig.Chaos and reconfigured at runtime with
// SetRule/ClearRule/Reset, so e2e scenarios and the sproutstore CLI can
// turn faults on and off against a live server. All methods are safe for
// concurrent use; a nil *Chaos injects nothing.
type Chaos struct {
	mu           sync.Mutex
	rules        map[int]ChaosRule
	hangNewConns bool
	rng          *rand.Rand
	stats        ChaosStats
}

// NewChaos builds an empty (fault-free) chaos harness. seed drives the
// error-rate and jitter sampling, keeping scenarios reproducible.
func NewChaos(seed int64) *Chaos {
	return &Chaos{rules: make(map[int]ChaosRule), rng: rand.New(rand.NewSource(seed))}
}

// SetRule installs (or replaces) the misbehaviour for one OSD.
func (c *Chaos) SetRule(osd int, r ChaosRule) {
	c.mu.Lock()
	c.rules[osd] = r
	c.mu.Unlock()
}

// ClearRule removes the rule for one OSD, restoring healthy behaviour.
func (c *Chaos) ClearRule(osd int) {
	c.mu.Lock()
	delete(c.rules, osd)
	c.mu.Unlock()
}

// Reset removes every rule and un-hangs the listener.
func (c *Chaos) Reset() {
	c.mu.Lock()
	c.rules = make(map[int]ChaosRule)
	c.hangNewConns = false
	c.mu.Unlock()
}

// Rule returns the active rule for an OSD, if any.
func (c *Chaos) Rule(osd int) (ChaosRule, bool) {
	if c == nil {
		return ChaosRule{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.rules[osd]
	return r, ok
}

// Stats returns the cumulative injection counters.
func (c *Chaos) Stats() ChaosStats {
	if c == nil {
		return ChaosStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// hangConn reports whether a newly accepted connection should be hung, and
// counts it.
func (c *Chaos) hangConn() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hangNewConns {
		c.stats.ConnsHung++
		return true
	}
	return false
}

// decide samples the target's rule once: the delay to impose and the fate
// of the request.
func (c *Chaos) decide(osd int) (time.Duration, chaosVerdict) {
	if c == nil {
		return 0, chaosPass
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.rules[osd]
	if !ok {
		return 0, chaosPass
	}
	delay := r.Latency
	if r.Jitter > 0 {
		delay += time.Duration(c.rng.Int63n(int64(r.Jitter)))
	}
	if r.Stall > 0 {
		delay += r.Stall
		c.stats.Stalls++
	}
	if delay > 0 {
		c.stats.DelaysInjected++
	}
	switch {
	case r.DropRequests:
		c.stats.RequestsDropped++
		return delay, chaosDropRequest
	case r.DropReplies:
		c.stats.RepliesDropped++
		return delay, chaosDropReply
	case r.ErrorRate > 0 && c.rng.Float64() < r.ErrorRate:
		c.stats.ErrorsInjected++
		return delay, chaosInjectError
	}
	return delay, chaosPass
}
