package repair

import (
	"context"
	"errors"
	"testing"
	"time"

	"sprout/internal/resilience"
)

// TestScheduleRetryBacksOffThenStalls exercises the persistent attempt
// budget: the first failure re-enqueues after a backoff delay, the failure
// that reaches MaxAttempts marks the chunk stalled instead, and a repair
// success clears the history.
func TestScheduleRetryBacksOffThenStalls(t *testing.T) {
	_, pool, _ := repairTestPool(t, 1)
	m := NewManager(pool, Config{
		MaxAttempts:  2,
		RetryBackoff: resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	defer m.Close()

	m.scheduleRetry(&item{object: "obj-000", chunk: 1, surviving: 5, attempts: 0})
	if got := m.retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	// The re-enqueue happens after the backoff sleep, off the caller.
	deadline := time.Now().Add(2 * time.Second)
	for m.queue.len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backed-off retry never re-enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	it := m.queue.pop()
	if it.attempts != 1 {
		t.Fatalf("re-enqueued attempts = %d, want 1", it.attempts)
	}
	m.queue.done(it.object, it.chunk)
	m.inFlight.Add(-1)

	// Second failure hits MaxAttempts: stalled, not retried.
	m.scheduleRetry(it)
	if got := m.retries.Load(); got != 1 {
		t.Fatalf("retries after stall = %d, want still 1", got)
	}
	st := m.Stats()
	if st.Stalled != 1 {
		t.Fatalf("Stalled = %d, want 1", st.Stalled)
	}
	if m.queue.len() != 0 {
		t.Fatal("stalled chunk was re-enqueued")
	}

	// RetryStalled releases it.
	if n := m.RetryStalled(); n != 1 {
		t.Fatalf("RetryStalled = %d, want 1", n)
	}
	if st := m.Stats(); st.Stalled != 0 {
		t.Fatalf("Stalled after release = %d, want 0", st.Stalled)
	}
}

// TestScanSkipsStalledUntilSurvivorsChange degrades a real pool, stalls one
// of its missing chunks, and checks the scan contract: the stalled chunk is
// skipped while its survivor count is unchanged and retried from scratch as
// soon as the count moves.
func TestScanSkipsStalledUntilSurvivorsChange(t *testing.T) {
	c, pool, _ := repairTestPool(t, 3)
	if err := c.FailOSDs(true, 1); err != nil {
		t.Fatal(err)
	}
	degs := pool.DegradedObjects()
	if len(degs) == 0 {
		t.Skip("no degradation for this seed")
	}
	missing := 0
	for _, d := range degs {
		missing += len(d.Missing)
	}
	target := degs[0]
	key := chunkID(target.Object, target.Missing[0])

	m := NewManager(pool, Config{})
	defer m.Close()
	m.attemptMu.Lock()
	m.stalled[key] = target.Surviving
	m.attempts[key] = m.cfg.MaxAttempts
	m.attemptMu.Unlock()

	if added := m.ScanOnce(); added != missing-1 {
		t.Fatalf("scan enqueued %d chunks, want %d (stalled chunk skipped)", added, missing-1)
	}

	// Pretend the chunk stalled under a different survivor count: the scan
	// must release it and enqueue with a clean attempt budget.
	m.attemptMu.Lock()
	m.stalled[key] = target.Surviving - 1
	m.attemptMu.Unlock()
	if added := m.ScanOnce(); added != 1 {
		t.Fatalf("scan after survivor change enqueued %d, want 1", added)
	}
	m.attemptMu.Lock()
	_, stillStalled := m.stalled[key]
	attempts := m.attempts[key]
	m.attemptMu.Unlock()
	if stillStalled || attempts != 0 {
		t.Fatalf("stalled=%v attempts=%d after survivor change, want released with 0", stillStalled, attempts)
	}
}

// TestRepairWithBreakersConverges runs a real repair with per-OSD breakers
// configured and one survivor's breaker pre-tripped: the repair plane must
// route around it and still restore full redundancy.
func TestRepairWithBreakersConverges(t *testing.T) {
	c, pool, _ := repairTestPool(t, 8)
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{
		ErrorThreshold: 1,
		OpenFor:        time.Minute,
	})
	// Trip OSD 7's breaker before any repair runs.
	breakers.Observe(7, errors.New("injected"), 0)
	if breakers.State(7) != resilience.BreakerOpen {
		t.Fatal("breaker not open after threshold-1 error")
	}

	if err := c.FailOSDs(true, 2); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(pool, Config{Workers: 2, ScanInterval: 2 * time.Millisecond, Breakers: breakers})
	mgr.Start()
	defer mgr.Close()
	mgr.Kick()

	deadline := time.Now().Add(10 * time.Second)
	for len(pool.DegradedObjects()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair with breakers did not converge: %d degraded left", len(pool.DegradedObjects()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if mgr.Stats().ChunksRepaired == 0 {
		t.Fatal("no chunks repaired")
	}
	// Healthy survivors were observed on the way: their breakers are closed
	// with success history, not untouched.
	if breakers.Stats().Opens != 1 {
		t.Fatalf("breaker opens = %d, want only the pre-tripped one", breakers.Stats().Opens)
	}
	if _, err := pool.Get(context.Background(), "obj-000"); err != nil {
		t.Fatalf("read after breaker-aware repair: %v", err)
	}
}
