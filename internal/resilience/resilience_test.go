package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a BreakerSet's time without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreakers(cfg BreakerConfig) (*BreakerSet, *fakeClock) {
	s := NewBreakerSet(cfg)
	clk := newFakeClock()
	s.now = clk.now
	return s, clk
}

var errBoom = errors.New("boom")

func TestBreakerOpensOnStreak(t *testing.T) {
	s, _ := newTestBreakers(BreakerConfig{ErrorThreshold: 3, OpenFor: time.Second})
	for i := 0; i < 2; i++ {
		s.Observe(7, errBoom, 0)
		if got := s.State(7); got != BreakerClosed {
			t.Fatalf("after %d errors state = %v, want closed", i+1, got)
		}
	}
	s.Observe(7, errBoom, 0)
	if got := s.State(7); got != BreakerOpen {
		t.Fatalf("after threshold state = %v, want open", got)
	}
	if s.Allow(7) {
		t.Fatal("open breaker allowed traffic before cooldown")
	}
	if st := s.Stats(); st.Opens != 1 || st.Rejections != 1 {
		t.Fatalf("stats = %+v, want 1 open / 1 rejection", st)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	s, _ := newTestBreakers(BreakerConfig{ErrorThreshold: 3})
	s.Observe(1, errBoom, 0)
	s.Observe(1, errBoom, 0)
	s.Observe(1, nil, 0)
	s.Observe(1, errBoom, 0)
	s.Observe(1, errBoom, 0)
	if got := s.State(1); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (success should reset the streak)", got)
	}
}

func TestBreakerLatencyThreshold(t *testing.T) {
	s, _ := newTestBreakers(BreakerConfig{ErrorThreshold: 2, LatencyThreshold: 10 * time.Millisecond})
	s.Observe(4, nil, 50*time.Millisecond)
	s.Observe(4, nil, 50*time.Millisecond)
	if got := s.State(4); got != BreakerOpen {
		t.Fatalf("state = %v, want open (slow successes count as failures)", got)
	}
}

func TestBreakerIgnoresContextCanceled(t *testing.T) {
	s, _ := newTestBreakers(BreakerConfig{ErrorThreshold: 1})
	s.Observe(2, context.Canceled, 0)
	s.Observe(2, fmt.Errorf("fetch: %w", context.Canceled), 0)
	if got := s.State(2); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (canceled fetches carry no signal)", got)
	}
}

// TestBreakerCountsOverload pins the other half of the overload rule: a
// shedding node is alive (membership never hears of it) but still worth
// avoiding, so overload rejections extend a breaker's streak.
func TestBreakerCountsOverload(t *testing.T) {
	s, _ := newTestBreakers(BreakerConfig{ErrorThreshold: 2})
	overload := fmt.Errorf("transport: rejected: %w", ErrOverload)
	s.Observe(3, overload, 0)
	s.Observe(3, overload, 0)
	if got := s.State(3); got != BreakerOpen {
		t.Fatalf("state = %v, want open (overload counts toward breakers)", got)
	}
}

func TestBreakerOverdueCancelCountsAsSlow(t *testing.T) {
	s, _ := newTestBreakers(BreakerConfig{ErrorThreshold: 2, LatencyThreshold: 10 * time.Millisecond})
	// Cancelled while still under the threshold: no signal (normal hedging).
	s.Observe(5, context.Canceled, 5*time.Millisecond)
	s.Observe(5, context.Canceled, 5*time.Millisecond)
	if got := s.State(5); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (fast cancels carry no signal)", got)
	}
	// Cancelled after exceeding the threshold: the fetch was already overdue
	// when the hedge won — that is the slow-node signal, and ignoring it
	// would leave a latency breaker permanently blind under hedged reads.
	s.Observe(5, context.Canceled, 25*time.Millisecond)
	s.Observe(5, fmt.Errorf("fetch: %w", context.Canceled), 25*time.Millisecond)
	if got := s.State(5); got != BreakerOpen {
		t.Fatalf("state = %v, want open (overdue cancels count as slow)", got)
	}
}

func TestBreakerHalfOpenProbeAndClose(t *testing.T) {
	s, clk := newTestBreakers(BreakerConfig{ErrorThreshold: 1, OpenFor: time.Second})
	s.Observe(3, errBoom, 0)
	if s.Allow(3) {
		t.Fatal("open breaker allowed traffic")
	}
	clk.advance(1100 * time.Millisecond)
	if !s.Allow(3) {
		t.Fatal("cooldown expired but probe refused")
	}
	if got := s.State(3); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if !s.Allow(3) {
		t.Fatal("second probe refused within halfOpenProbes")
	}
	if s.Allow(3) {
		t.Fatal("third probe allowed beyond halfOpenProbes")
	}
	s.Observe(3, nil, 0)
	if got := s.State(3); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if st := s.Stats(); st.Closes != 1 || st.Probes != 2 {
		t.Fatalf("stats = %+v, want 1 close / 2 probes", st)
	}
}

func TestBreakerReopenDoublesCooldown(t *testing.T) {
	s, clk := newTestBreakers(BreakerConfig{ErrorThreshold: 1, OpenFor: time.Second})
	s.Observe(5, errBoom, 0)
	clk.advance(1100 * time.Millisecond)
	if !s.Allow(5) {
		t.Fatal("probe refused after cooldown")
	}
	s.Observe(5, errBoom, 0) // failed probe → reopen with 2s cooldown
	if got := s.State(5); got != BreakerOpen {
		t.Fatalf("state = %v, want open after failed probe", got)
	}
	clk.advance(1100 * time.Millisecond)
	if s.Allow(5) {
		t.Fatal("reopened breaker honoured the old 1s cooldown, want doubled")
	}
	clk.advance(1000 * time.Millisecond)
	if !s.Allow(5) {
		t.Fatal("probe refused after doubled cooldown expired")
	}
	s.Observe(5, nil, 0)
	// Cooldown resets on close: a fresh trip waits the base 1s again.
	s.Observe(5, errBoom, 0)
	clk.advance(1100 * time.Millisecond)
	if !s.Allow(5) {
		t.Fatal("cooldown did not reset to base after recovery")
	}
	if st := s.Stats(); st.Reopens != 1 {
		t.Fatalf("stats = %+v, want 1 reopen", st)
	}
	// Failed probes keep doubling the cooldown (2s, 4s, 8s) until it caps at
	// maxOpenGrowth×OpenFor.
	for _, cooldown := range []time.Duration{2, 4, 8, 8} {
		s.Observe(5, errBoom, 0)
		clk.advance(cooldown*time.Second - 100*time.Millisecond)
		if s.Allow(5) {
			t.Fatalf("probe allowed before the %v cooldown expired", cooldown*time.Second)
		}
		clk.advance(200 * time.Millisecond)
		if !s.Allow(5) {
			t.Fatalf("probe refused after the %v cooldown expired", cooldown*time.Second)
		}
	}
}

func TestBreakerHalfOpenStaleProbesReset(t *testing.T) {
	s, clk := newTestBreakers(BreakerConfig{ErrorThreshold: 1, OpenFor: time.Second})
	s.Observe(6, errBoom, 0)
	clk.advance(1100 * time.Millisecond)
	for i := 0; i < halfOpenProbes; i++ {
		if !s.Allow(6) {
			t.Fatalf("probe %d refused after cooldown", i)
		}
	}
	if s.Allow(6) {
		t.Fatal("probe allowed beyond halfOpenProbes")
	}
	// The probes never report back (candidate enumerated but not fetched).
	// After another cooldown the breaker must grant a fresh probe rather
	// than staying wedged half-open.
	clk.advance(1100 * time.Millisecond)
	if !s.Allow(6) {
		t.Fatal("half-open breaker wedged: stale probe never expired")
	}
}

func TestBreakerNilReceiver(t *testing.T) {
	var s *BreakerSet
	if !s.Allow(1) {
		t.Fatal("nil BreakerSet must allow")
	}
	s.Observe(1, errBoom, 0)
	if got := s.State(1); got != BreakerClosed {
		t.Fatalf("nil BreakerSet state = %v, want closed", got)
	}
	if st := s.Stats(); st != (BreakerStats{}) {
		t.Fatalf("nil BreakerSet stats = %+v, want zero", st)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	s, _ := newTestBreakers(BreakerConfig{ErrorThreshold: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				target := i % 5
				s.Allow(target)
				if i%3 == 0 {
					s.Observe(target, errBoom, 0)
				} else {
					s.Observe(target, nil, time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	for target := 0; target < 5; target++ {
		s.State(target)
	}
	s.Stats()
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(4, 0.5)
	// Full bucket: withdrawals succeed until tokens fall to max/2 = 2.
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("full budget refused a withdrawal")
	}
	if b.Withdraw() {
		t.Fatal("withdrawal granted at half capacity")
	}
	if b.Exhausted() != 1 {
		t.Fatalf("exhausted = %d, want 1", b.Exhausted())
	}
	// Successes replenish fractionally.
	b.OnSuccess()
	b.OnSuccess() // tokens: 2 → 3
	if !b.Withdraw() {
		t.Fatal("replenished budget refused a withdrawal")
	}
	// Replenishment caps at max.
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	for i := 0; i < 2; i++ {
		if !b.Withdraw() {
			t.Fatalf("withdrawal %d refused from a full bucket", i)
		}
	}
	if b.Withdraw() {
		t.Fatal("bucket exceeded its cap")
	}
}

func TestRetryBudgetNil(t *testing.T) {
	var b *RetryBudget
	for i := 0; i < 100; i++ {
		if !b.Withdraw() {
			t.Fatal("nil budget must grant every withdrawal")
		}
	}
	b.OnSuccess()
	if b.Exhausted() != 0 {
		t.Fatal("nil budget exhausted count must be 0")
	}
}

func TestBackoffDelay(t *testing.T) {
	// u=1 gives the full (unjittered) delay: 2ms doubling to the 250ms cap.
	for i, want := range []time.Duration{2, 4, 8, 16, 32, 64, 128, 250, 250} {
		if got := BackoffDelay(i, 1); got != want*time.Millisecond {
			t.Fatalf("BackoffDelay(%d, 1) = %v, want %v", i, got, want*time.Millisecond)
		}
	}
	// u=0 gives the floor of the 50% jitter window.
	if got := BackoffDelay(0, 0); got != time.Millisecond {
		t.Fatalf("BackoffDelay(0, 0) = %v, want 1ms", got)
	}
	// Mid-window values stay inside [d/2, d].
	for i := 0; i < 4; i++ {
		for _, u := range []float64{0.1, 0.37, 0.99} {
			d := BackoffDelay(i, u)
			hi := BackoffDelay(i, 1)
			if d < hi/2 || d > hi {
				t.Fatalf("BackoffDelay(%d, %v) = %v outside [%v, %v]", i, u, d, hi/2, hi)
			}
		}
	}
	// Out-of-range variates clamp instead of exploding.
	if d := BackoffDelay(0, -3); d != BackoffDelay(0, 0) {
		t.Fatalf("BackoffDelay(0, -3) = %v, want clamp to u=0", d)
	}
	if d := BackoffDelay(0, 7); d != BackoffDelay(0, 1) {
		t.Fatalf("BackoffDelay(0, 7) = %v, want clamp to u=1", d)
	}
}

// TestBackoffDefaults pins the constants the client and repair share: a 2ms
// first retry and a 250ms cap.
func TestBackoffDefaults(t *testing.T) {
	if d := BackoffDelay(0, 1); d != 2*time.Millisecond {
		t.Fatalf("BackoffDelay(0, 1) = %v, want 2ms", d)
	}
	if d := BackoffDelay(20, 1); d != 250*time.Millisecond {
		t.Fatalf("BackoffDelay(20, 1) = %v, want capped at 250ms", d)
	}
}

func TestIsOverload(t *testing.T) {
	if !IsOverload(ErrOverload) {
		t.Fatal("ErrOverload must classify as overload")
	}
	if !IsOverload(fmt.Errorf("server: %w", ErrOverload)) {
		t.Fatal("wrapped ErrOverload must classify as overload")
	}
	if IsOverload(errBoom) || IsOverload(nil) {
		t.Fatal("unrelated errors must not classify as overload")
	}
}

func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep(canceled) = %v, want context.Canceled", err)
	}
	start := time.Now()
	if err := Sleep(context.Background(), 5*time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >= 5ms", elapsed)
	}
}
