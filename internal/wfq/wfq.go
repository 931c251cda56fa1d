// Package wfq is the serving path's one work queue: a weighted-fair
// scheduler wherever several tenants contend for one worker pool — the
// transport server's request queue and the controller's background-fill
// feed. Each tenant has its own bounded FIFO, so a tenant flooding its
// queue can only fill — and overflow — that queue while the other tenants
// keep draining at their weighted share.
//
// All queues sit under one mutex. Consumers pop through a
// deficit-round-robin scan; items are unit cost, so DRR degenerates to
// weighted round robin: the scan serves up to weight×quantum items from a
// tenant before advancing, skips empty tenants (forfeiting their remaining
// deficit, as DRR requires for work conservation), and wraps around.
//
// Parking is a buffered channel holding one token per queued item: Push
// enqueues and then sends a token, and a consumer receives a token before
// it pops. A consumer therefore blocks exactly while nothing is queued, a
// token always finds its item, and no wake-up can be lost — there is no
// waiter count, wake chaining or spin.
package wfq

import (
	"sync"
	"sync/atomic"

	"sprout/internal/ring"
)

// Config tunes a scheduler.
type Config struct {
	// QueueCap is the per-tenant queue capacity. Default 256.
	QueueCap int
	// Weights maps tenant names to their fair-share weight. Tenants not
	// listed (including the unnamed "" tenant) get weight 1. Values < 1 are
	// clamped to 1.
	Weights map[string]int
}

// quantum is the number of items one weight unit buys per round.
const quantum = 1

// maxTenants bounds the named queues a scheduler keeps (or len(Weights),
// if larger): tenant names arrive from the wire, and queues are never
// freed. Names past the bound share the "" queue.
const maxTenants = 64

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	return c
}

// tenantQ is one tenant's circular FIFO and its counters, guarded by
// Sched.mu.
type tenantQ[T any] struct {
	name    string
	weight  int
	deficit int
	buf     []T
	head, n int
	st      ring.Stats // Parks stays 0: parks are not per tenant
}

// Sched is a deficit-round-robin scheduler over per-tenant bounded FIFOs.
// Construct with New; safe for concurrent producers and consumers.
type Sched[T any] struct {
	cfg       Config
	maxQueues int

	mu     sync.Mutex
	queues map[string]*tenantQ[T]
	order  []*tenantQ[T]
	cursor int

	// tokens holds one token per queued item. Its capacity covers every
	// queue's every slot, so a send after a successful enqueue never blocks.
	tokens chan struct{}
	parks  atomic.Int64

	closedCh  chan struct{}
	closeOnce sync.Once
}

// New builds a scheduler. Tenants named in cfg.Weights get their queues
// up front; unknown tenants are added on first push with weight 1.
func New[T any](cfg Config) *Sched[T] {
	cfg = cfg.withDefaults()
	s := &Sched[T]{
		cfg:       cfg,
		maxQueues: max(maxTenants, len(cfg.Weights)),
		queues:    make(map[string]*tenantQ[T]),
		closedCh:  make(chan struct{}),
	}
	s.tokens = make(chan struct{}, (s.maxQueues+1)*cfg.QueueCap)
	for name := range cfg.Weights {
		s.queue(name)
	}
	return s
}

// queue returns tenant name's queue, adding it if the bound allows and
// falling back to the shared "" queue if not. Callers hold s.mu (or own s
// exclusively, as New does).
func (s *Sched[T]) queue(name string) *tenantQ[T] {
	if q := s.queues[name]; q != nil {
		return q
	}
	if len(s.queues) >= s.maxQueues {
		name = ""
		if q := s.queues[name]; q != nil {
			return q
		}
	}
	w := s.cfg.Weights[name]
	if w < 1 {
		w = 1
	}
	q := &tenantQ[T]{name: name, weight: w, buf: make([]T, s.cfg.QueueCap)}
	s.queues[name] = q
	s.order = append(s.order, q)
	return q
}

// Push enqueues v on tenant's queue. It returns false when that queue is
// full — the caller applies its overload policy; other tenants' capacity
// is unaffected. Pushing to a closed scheduler is a caller bug.
func (s *Sched[T]) Push(tenant string, v T) bool {
	s.mu.Lock()
	q := s.queue(tenant)
	if q.n == len(q.buf) {
		q.st.Rejects++
		s.mu.Unlock()
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.st.Pushes++
	s.mu.Unlock()
	s.tokens <- struct{}{}
	return true
}

// TryPop dequeues the next item in weighted-fair order, or reports false
// when nothing is queued.
func (s *Sched[T]) TryPop() (T, bool) {
	select {
	case <-s.tokens:
		return s.pop(), true
	default:
		var zero T
		return zero, false
	}
}

// PopWait dequeues the next item in weighted-fair order, parking until one
// arrives. It returns ok == false when stop becomes ready (queued items are
// left for the owner), or when the scheduler has been closed and fully
// drained. A nil stop never fires.
func (s *Sched[T]) PopWait(stop <-chan struct{}) (T, bool) {
	var zero T
	select {
	case <-stop:
		return zero, false
	default:
	}
	select {
	case <-s.tokens:
		return s.pop(), true
	case <-s.closedCh:
		return s.TryPop()
	default:
	}
	s.parks.Add(1)
	select {
	case <-s.tokens:
		return s.pop(), true
	case <-s.closedCh:
		// Closed: producers have stopped, so whatever tokens remain are
		// the rest of the queue. Drain it, then report exhaustion.
		return s.TryPop()
	case <-stop:
		return zero, false
	}
}

// pop runs one deficit-round-robin scan for a consumer holding a token, so
// some queue is non-empty. Each visit either serves the cursor's tenant
// (consuming one deficit credit, refreshed from weight×quantum whenever it
// is exhausted) or forfeits an empty tenant's remaining credit and
// advances — so a tenant with weight w gets up to w×quantum consecutive
// pops before the cursor moves on, and empty tenants cost one step each.
func (s *Sched[T]) pop() T {
	var zero T
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.order)
	for {
		if s.cursor >= n {
			s.cursor = 0
		}
		q := s.order[s.cursor]
		if q.n == 0 {
			q.deficit = 0
			s.cursor++
			continue
		}
		if q.deficit <= 0 {
			q.deficit = q.weight * quantum
		}
		v := q.buf[q.head]
		q.buf[q.head] = zero // drop the reference so the GC can reclaim it
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.st.Pops++
		q.deficit--
		if q.deficit <= 0 {
			s.cursor++
		}
		return v
	}
}

// Len returns the number of queued items across all tenants.
func (s *Sched[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, q := range s.order {
		n += q.n
	}
	return n
}

// Close marks the scheduler closed and wakes every parked consumer; they
// drain the remaining items and then see ok == false. The caller must have
// stopped all producers first.
func (s *Sched[T]) Close() {
	s.closeOnce.Do(func() { close(s.closedCh) })
}

// Stats returns the queue telemetry summed across tenants, with Parks
// counting the times a consumer found nothing queued and waited.
func (s *Sched[T]) Stats() ring.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ring.Stats{Parks: s.parks.Load()}
	for _, q := range s.order {
		out.Pushes += q.st.Pushes
		out.Pops += q.st.Pops
		out.Rejects += q.st.Rejects
	}
	return out
}

// TenantStats returns the per-tenant queue telemetry, keyed by tenant
// name. Parks are not per tenant and read 0 here.
func (s *Sched[T]) TenantStats() map[string]ring.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ring.Stats, len(s.order))
	for _, q := range s.order {
		out[q.name] = q.st
	}
	return out
}
