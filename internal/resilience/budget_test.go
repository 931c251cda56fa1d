package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRetryBudgetAmplificationBound races successes against withdrawals from
// 8 goroutines and checks the budget's core promise: granted retries stay
// bounded by the drainable headroom plus ratio per success, so retry traffic
// converges to at most (1 + ratio) x the offered load instead of multiplying
// it. The token accounting is mutex-guarded, so the bound must hold exactly
// under any interleaving.
func TestRetryBudgetAmplificationBound(t *testing.T) {
	const (
		maxTokens = 10.0
		ratio     = 0.1
		workers   = 8
		opsEach   = 5000
	)
	b := NewRetryBudget(maxTokens, ratio)
	var successes, granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				if (i+w)%3 == 0 {
					b.OnSuccess()
					successes.Add(1)
				} else if b.Withdraw() {
					granted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	// Each grant requires tokens > max/2 before spending one, and each
	// success credits at most ratio; starting from a full bucket the grants
	// can never exceed the half-bucket headroom plus the credited fraction.
	bound := int64(maxTokens/2+1) + int64(float64(successes.Load())*ratio) + 1
	if g := granted.Load(); g > bound {
		t.Fatalf("granted %d retries, amplification bound allows %d (successes=%d)", g, bound, successes.Load())
	}
	if granted.Load() == 0 {
		t.Fatal("no retries granted from a full bucket")
	}
	if b.Exhausted() == 0 {
		t.Fatal("expected some withdrawals refused under 2:1 retry pressure")
	}
}

func TestRetryBudgetNilGrantsEverything(t *testing.T) {
	var b *RetryBudget
	b.OnSuccess()
	for i := 0; i < 100; i++ {
		if !b.Withdraw() {
			t.Fatal("nil budget refused a withdrawal")
		}
	}
	if b.Exhausted() != 0 {
		t.Fatal("nil budget reported exhaustion")
	}
}

func TestRetryBudgetMaxTokensOne(t *testing.T) {
	b := NewRetryBudget(1, 0.5)
	if !b.Withdraw() {
		t.Fatal("first withdrawal from a full single-token bucket refused")
	}
	// tokens now 0 <= max/2: everything further is refused until successes
	// push the level back above half.
	if b.Withdraw() {
		t.Fatal("withdrawal granted from a drained single-token bucket")
	}
	b.OnSuccess()
	b.OnSuccess() // 0 + 0.5 + 0.5 = 1.0 > 0.5
	if !b.Withdraw() {
		t.Fatal("withdrawal refused after successes refilled past half capacity")
	}
	if b.Exhausted() != 1 {
		t.Fatalf("Exhausted = %d, want 1", b.Exhausted())
	}
}
