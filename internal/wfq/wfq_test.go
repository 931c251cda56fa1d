package wfq

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestWeightedShare pins the DRR property: with every tenant's queue
// saturated, a drain serves tenants proportionally to their weights.
func TestWeightedShare(t *testing.T) {
	s := New[string](Config{
		QueueCap: 64,
		Weights:  map[string]int{"gold": 3, "bronze": 1},
	})
	for i := 0; i < 64; i++ {
		if !s.Push("gold", "gold") {
			t.Fatal("gold push rejected below capacity")
		}
		if !s.Push("bronze", "bronze") {
			t.Fatal("bronze push rejected below capacity")
		}
	}
	// Drain one full backlog's worth while both queues stay non-empty: gold
	// must get ~3/4 of the service.
	counts := map[string]int{}
	for i := 0; i < 64; i++ {
		v, ok := s.TryPop()
		if !ok {
			t.Fatalf("tryPop empty after %d items", i)
		}
		counts[v]++
	}
	if counts["gold"] != 48 || counts["bronze"] != 16 {
		t.Fatalf("drain of 64 with weights 3:1 served %v, want gold=48 bronze=16", counts)
	}
}

// TestPerTenantOverflowIsolation verifies a flooding tenant fills only its
// own queue: pushes for other tenants still succeed.
func TestPerTenantOverflowIsolation(t *testing.T) {
	s := New[int](Config{QueueCap: 4})
	for i := 0; i < 4; i++ {
		if !s.Push("bronze", i) {
			t.Fatal("push rejected below capacity")
		}
	}
	if s.Push("bronze", 99) {
		t.Fatal("push beyond bronze's ring capacity accepted")
	}
	if !s.Push("gold", 1) {
		t.Fatal("gold push rejected while only bronze is full")
	}
	st := s.TenantStats()
	if st["bronze"].Rejects != 1 {
		t.Fatalf("bronze rejects = %d, want 1", st["bronze"].Rejects)
	}
	if st["gold"].Rejects != 0 {
		t.Fatalf("gold rejects = %d, want 0", st["gold"].Rejects)
	}
}

// TestEmptyTenantsAreSkipped: an idle tenant must not stall the scan or
// leak service to nobody.
func TestEmptyTenantsAreSkipped(t *testing.T) {
	s := New[int](Config{Weights: map[string]int{"a": 5, "b": 1, "c": 1}})
	for i := 0; i < 10; i++ {
		s.Push("b", i)
	}
	for i := 0; i < 10; i++ {
		v, ok := s.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v), want FIFO within tenant", i, v, ok)
		}
	}
	if _, ok := s.TryPop(); ok {
		t.Fatal("pop from drained scheduler succeeded")
	}
}

// TestPopWaitParksAndWakes: a parked consumer is woken by a later push, and
// concurrent producers/consumers under the race detector exercise the
// token hand-off.
func TestPopWaitParksAndWakes(t *testing.T) {
	s := New[int](Config{QueueCap: 128})
	got := make(chan int)
	go func() {
		v, ok := s.PopWait(nil)
		if !ok {
			t.Error("PopWait returned !ok")
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer park
	s.Push("t", 42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("PopWait = %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked consumer never woke")
	}

	const producers, items, consumers = 4, 200, 3
	var wg sync.WaitGroup
	var consumed sync.WaitGroup
	consumed.Add(producers * items)
	for c := 0; c < consumers; c++ {
		go func() {
			for {
				if _, ok := s.PopWait(nil); !ok {
					return
				}
				consumed.Done()
			}
		}()
	}
	tenants := []string{"gold", "silver", "bronze", ""}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				for !s.Push(tenants[p], i) {
					time.Sleep(time.Microsecond)
				}
			}
		}(p)
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { consumed.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("consumers did not drain all items (lost wakeup?)")
	}
	s.Close()
}

// TestCloseDrains: items queued before Close are still served; afterwards
// PopWait reports exhaustion.
func TestCloseDrains(t *testing.T) {
	s := New[int](Config{})
	for i := 0; i < 5; i++ {
		s.Push("t", i)
	}
	s.Close()
	for i := 0; i < 5; i++ {
		v, ok := s.PopWait(nil)
		if !ok || v != i {
			t.Fatalf("drain pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := s.PopWait(nil); ok {
		t.Fatal("PopWait on closed+drained scheduler returned ok")
	}
}

// TestStopChannel: a ready stop channel interrupts a parked PopWait.
func TestStopChannel(t *testing.T) {
	s := New[int](Config{})
	stop := make(chan struct{})
	done := make(chan bool)
	go func() {
		_, ok := s.PopWait(stop)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("PopWait returned ok on stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PopWait ignored stop")
	}
}

// TestAggregateStats: Stats sums the tenant queues.
func TestAggregateStats(t *testing.T) {
	s := New[int](Config{})
	s.Push("a", 1)
	s.Push("b", 2)
	s.TryPop()
	st := s.Stats()
	if st.Pushes != 2 || st.Pops != 1 {
		t.Fatalf("aggregate stats = %+v, want 2 pushes 1 pop", st)
	}
}

// TestFIFOAndFull: one tenant's queue holds exactly QueueCap items in push
// order, refuses the next, and counts both.
func TestFIFOAndFull(t *testing.T) {
	s := New[int](Config{QueueCap: 3})
	for i := 0; i < 3; i++ {
		if !s.Push("t", i) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if s.Push("t", 99) {
		t.Fatal("push accepted on a full queue")
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if v, ok := s.TryPop(); !ok || v != i {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := s.TryPop(); ok {
		t.Fatal("pop succeeded on an empty scheduler")
	}
	if st := s.Stats(); st.Pushes != 3 || st.Pops != 3 || st.Rejects != 1 {
		t.Fatalf("stats = %+v, want 3 pushes, 3 pops, 1 reject", st)
	}
}

// TestWrapAround runs a tenant's circular FIFO through many laps.
func TestWrapAround(t *testing.T) {
	s := New[int](Config{QueueCap: 2})
	for i := 0; i < 1000; i++ {
		if !s.Push("t", i) || !s.Push("t", -i) {
			t.Fatalf("push %d rejected", i)
		}
		for _, want := range []int{i, -i} {
			if v, ok := s.TryPop(); !ok || v != want {
				t.Fatalf("lap %d: pop = (%d, %v), want %d", i, v, ok, want)
			}
		}
	}
}

// TestMPSCOrdered: every item arrives exactly once, and each producer's
// items arrive in its own push order through one shared tenant queue.
func TestMPSCOrdered(t *testing.T) {
	const producers, perProducer = 8, 2000
	s := New[[2]int](Config{QueueCap: 64})
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < perProducer; i++ {
				for !s.Push("", [2]int{p, i}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	for n := 0; n < producers*perProducer; n++ {
		v, ok := s.PopWait(nil)
		if !ok {
			t.Fatal("PopWait returned !ok mid-stream")
		}
		if p, i := v[0], v[1]; i != last[p]+1 {
			t.Fatalf("producer %d: got item %d after %d", p, i, last[p])
		}
		last[v[0]] = v[1]
	}
}

// TestMPMC: concurrent producers on several tenants and concurrent
// consumers, ended by Close, pop every pushed item exactly once.
func TestMPMC(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 5000
	s := New[int](Config{QueueCap: 32, Weights: map[string]int{"p0": 3}})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !s.Push(fmt.Sprintf("p%d", p), p*perProducer+i) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		s.Close()
	}()
	var mu sync.Mutex
	seen := make(map[int]bool, producers*perProducer)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := s.PopWait(nil)
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("item %d popped twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	cwg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("popped %d distinct items, want %d", len(seen), producers*perProducer)
	}
}

// waitParks blocks until n consumers have found nothing queued and parked.
func waitParks(t *testing.T, s *Sched[int], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Parks < n {
		if time.Now().After(deadline) {
			t.Fatalf("Stats().Parks = %d, want >= %d: parked consumers are not counted", s.Stats().Parks, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWakeAfterPark: a consumer parked in PopWait is woken by a later Push,
// and the park shows in Stats, which the exporter and the repository
// benchmark read as the queue's park counter.
func TestWakeAfterPark(t *testing.T) {
	s := New[int](Config{})
	got := make(chan int, 1)
	go func() {
		v, _ := s.PopWait(nil)
		got <- v
	}()
	waitParks(t, s, 1)
	s.Push("t", 42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("got %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer never woke for the push")
	}
	if st := s.Stats(); st.Parks < 1 || st.Pushes != 1 || st.Pops != 1 {
		t.Fatalf("stats = %+v, want >= 1 park, 1 push, 1 pop", st)
	}
}

// TestBurstWakesAllParked: a burst of pushes against a fully parked pool
// wakes one consumer per item, so the backlog never drains serially
// through one consumer while its peers sleep. Each consumer stops after
// one item, modelling a worker stuck in a slow handler.
func TestBurstWakesAllParked(t *testing.T) {
	const n = 8
	s := New[int](Config{QueueCap: 16})
	got := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			if v, ok := s.PopWait(nil); ok {
				got <- v
			}
		}()
	}
	waitParks(t, s, n)
	for i := 0; i < n; i++ {
		s.Push("t", i)
	}
	seen := make(map[int]bool, n)
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case v := <-got:
			seen[v] = true
		case <-timeout:
			t.Fatalf("lost wakeup: only %d of %d parked consumers woke for the burst", i, n)
		}
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct items, want %d", len(seen), n)
	}
}

// TestCloseWakesParked: Close unblocks a parked consumer, which reports
// exhaustion.
func TestCloseWakesParked(t *testing.T) {
	s := New[int](Config{})
	done := make(chan bool, 1)
	go func() {
		_, ok := s.PopWait(nil)
		done <- ok
	}()
	waitParks(t, s, 1)
	s.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("parked consumer got an item from an empty closed scheduler")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the parked consumer")
	}
	s.Close() // idempotent
}

// TestStopAbandons: stop ends a parked PopWait at once, and a stop that has
// already fired leaves queued items for the owner to drain.
func TestStopAbandons(t *testing.T) {
	s := New[int](Config{})
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := s.PopWait(stop)
		done <- ok
	}()
	waitParks(t, s, 1)
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("stopped consumer reported an item")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not wake the parked consumer")
	}
	s.Push("t", 8)
	if _, ok := s.PopWait(stop); ok {
		t.Fatal("PopWait ignored an already-fired stop channel")
	}
	if v, ok := s.TryPop(); !ok || v != 8 {
		t.Fatal("stop consumed the queued item instead of leaving it")
	}
}

// TestTenantBound: tenant names come from the wire, so 10 000 distinct
// names must not leave 10 000 queues. Names past the bound share the ""
// queue, and every accepted item is still served.
func TestTenantBound(t *testing.T) {
	s := New[int](Config{QueueCap: 128})
	const names = 10_000
	pushed, popped := 0, 0
	for i := 0; i < names; i++ {
		if !s.Push(fmt.Sprintf("tenant-%d", i), i) {
			t.Fatalf("push for tenant-%d rejected", i)
		}
		pushed++
		if i%100 == 99 {
			for {
				if _, ok := s.TryPop(); !ok {
					break
				}
				popped++
			}
		}
	}
	if n := len(s.TenantStats()); n > maxTenants+1 {
		t.Fatalf("%d distinct names left %d queues, want <= %d", names, n, maxTenants+1)
	}
	if popped != pushed || s.Len() != 0 {
		t.Fatalf("pushed %d, popped %d, %d left queued", pushed, popped, s.Len())
	}
	if st := s.Stats(); st.Pushes != names || st.Pops != names {
		t.Fatalf("stats = %+v, want %d pushes and pops", st, names)
	}
}
