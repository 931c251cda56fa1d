package tick

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPeriodicRuns(t *testing.T) {
	s := New()
	defer s.Close()
	var fast, slow atomic.Int64
	s.Register(5*time.Millisecond, func(time.Time) { fast.Add(1) })
	s.Register(50*time.Millisecond, func(time.Time) { slow.Add(1) })

	deadline := time.Now().Add(5 * time.Second)
	for fast.Load() < 10 || slow.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not run: fast=%d slow=%d", fast.Load(), slow.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if f, sl := fast.Load(), slow.Load(); f < sl {
		t.Fatalf("fast job (%d runs) ran less than slow job (%d runs)", f, sl)
	}
}

func TestKickOnlyJob(t *testing.T) {
	s := New()
	defer s.Close()
	var runs atomic.Int64
	manual := s.Register(0, func(time.Time) { runs.Add(1) })

	time.Sleep(20 * time.Millisecond)
	if got := runs.Load(); got != 0 {
		t.Fatalf("kick-only job ran %d times without a kick", got)
	}
	s.Kick(manual)
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kick never ran the job")
		}
		time.Sleep(time.Millisecond)
	}
	s.Unregister(manual)
	s.Kick(manual) // no longer registered: must not panic, wedge or run
	s.Unregister(manual)
	time.Sleep(10 * time.Millisecond)
	if got := runs.Load(); got != 1 {
		t.Fatalf("unregistered job ran: %d runs, want 1", got)
	}
}

func TestKickRunsPromptly(t *testing.T) {
	s := New()
	defer s.Close()
	var runs atomic.Int64
	s.Kick(s.Register(time.Hour, func(time.Time) { runs.Add(1) }))
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kicked hour-period job did not run promptly")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRegisterTwiceKeepsBoth: every Register adds a job of its own, so two
// subsystems sharing a scheduler cannot evict each other's work, and
// unregistering one leaves the other running.
func TestRegisterTwiceKeepsBoth(t *testing.T) {
	s := New()
	defer s.Close()
	var a, b atomic.Int64
	first := s.Register(5*time.Millisecond, func(time.Time) { a.Add(1) })
	s.Register(5*time.Millisecond, func(time.Time) { b.Add(1) })
	if got := s.NumJobs(); got != 2 {
		t.Fatalf("NumJobs = %d after two registrations, want 2", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Load() < 3 || b.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("both jobs must run: a=%d b=%d", a.Load(), b.Load())
		}
		time.Sleep(time.Millisecond)
	}
	s.Unregister(first)
	if got := s.NumJobs(); got != 1 {
		t.Fatalf("NumJobs = %d after Unregister, want 1", got)
	}
	was := b.Load()
	for b.Load() < was+3 {
		if time.Now().After(deadline) {
			t.Fatal("surviving job stopped running")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseStopsAndIsIdempotent(t *testing.T) {
	s := New()
	var runs atomic.Int64
	s.Register(time.Millisecond, func(time.Time) { runs.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never ran")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	after := runs.Load()
	time.Sleep(10 * time.Millisecond)
	if got := runs.Load(); got != after {
		t.Fatalf("job ran after Close: %d -> %d", after, got)
	}
	s.Close() // idempotent
}

func TestNoJobsIdles(t *testing.T) {
	s := New()
	time.Sleep(5 * time.Millisecond)
	s.Close() // must not wedge with an empty job list
}
