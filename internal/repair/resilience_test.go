package repair

import (
	"testing"
	"time"
)

// TestScheduleRetryBacksOffThenStalls exercises the persistent attempt
// budget: each failure below maxAttempts re-enqueues after a backoff delay,
// and the failure that reaches it marks the chunk stalled instead.
func TestScheduleRetryBacksOffThenStalls(t *testing.T) {
	_, pool, _ := repairTestPool(t, 1)
	m := NewManager(pool, Config{})
	defer m.Close()

	it := &item{object: "obj-000", chunk: 1, surviving: 5, attempts: 0}
	for attempt := 1; attempt < maxAttempts; attempt++ {
		m.scheduleRetry(it)
		if got := m.retries.Load(); got != int64(attempt) {
			t.Fatalf("retries = %d, want %d", got, attempt)
		}
		// The re-enqueue happens after the backoff sleep, off the caller.
		deadline := time.Now().Add(2 * time.Second)
		for m.queue.len() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("backed-off retry never re-enqueued")
			}
			time.Sleep(time.Millisecond)
		}
		it = m.queue.pop()
		if it.attempts != attempt {
			t.Fatalf("re-enqueued attempts = %d, want %d", it.attempts, attempt)
		}
		m.queue.done(it.object, it.chunk)
		m.inFlight.Add(-1)
	}

	// The failure that reaches maxAttempts stalls the chunk: not retried.
	m.scheduleRetry(it)
	if got := m.retries.Load(); got != maxAttempts-1 {
		t.Fatalf("retries after stall = %d, want still %d", got, maxAttempts-1)
	}
	st := m.Stats()
	if st.Stalled != 1 {
		t.Fatalf("Stalled = %d, want 1", st.Stalled)
	}
	if m.queue.len() != 0 {
		t.Fatal("stalled chunk was re-enqueued")
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
	m.attempts[key] = maxAttempts
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
