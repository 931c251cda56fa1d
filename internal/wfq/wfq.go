// Package wfq provides the weighted-fair work scheduler the serving path
// uses wherever several tenants contend for one bounded worker pool: the
// transport server's request queue and the controller's background-fill
// feed. It replaces a single ring.Buf with one bounded MPSC ring per tenant
// plus a deficit-round-robin dispatcher, so a tenant flooding its own queue
// can only ever fill — and overflow — its own ring while the other tenants
// keep draining at their weighted share.
//
// The data path stays on the lock-free rings from internal/ring: producers
// TryPush into their tenant's ring (a read-locked map lookup on the hot
// path, a write-locked insert only the first time a tenant appears), and
// consumers pop through a deficit-round-robin scan. Items are unit cost, so
// DRR degenerates to weighted round robin: the dispatcher serves up to
// weight×quantum items from a tenant's ring before advancing, skips empty
// rings (forfeiting their remaining deficit, as DRR requires for work
// conservation), and wraps around. The scan state (cursor + per-tenant
// deficits) is tiny and guarded by a mutex; the mutex bounds nothing on the
// producer side and is held only for the few loads of a scan, so the
// scheduler keeps the ring's throughput characteristics while adding
// isolation.
//
// Parking mirrors the ring's eventcount protocol: producers signal a
// one-token wake channel only when a consumer is registered as waiting, a
// consumer re-polls after registering, and a woken consumer that claims an
// item re-publishes the token while work remains (wake chaining), so bursts
// collapsed into one token still spin up the whole pool.
package wfq

import (
	"sync"
	"sync/atomic"

	"sprout/internal/ring"
)

// Config tunes a scheduler.
type Config struct {
	// QueueCap is the per-tenant ring capacity (rounded up to a power of
	// two). Default 256.
	QueueCap int
	// Weights maps tenant names to their fair-share weight. Tenants not
	// listed (including the unnamed "" tenant) get weight 1. Values < 1 are
	// clamped to 1.
	Weights map[string]int
}

// quantum is the number of items one weight unit buys per round.
const quantum = 1

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	return c
}

type tenantQ[T any] struct {
	name    string
	weight  int
	deficit int // guarded by Sched.cmu
	buf     *ring.Buf[T]
}

// Sched is a deficit-round-robin scheduler over per-tenant bounded rings.
// Construct with New; safe for concurrent producers and consumers.
type Sched[T any] struct {
	cfg Config

	mu     sync.RWMutex // guards queues/order growth
	queues map[string]*tenantQ[T]
	order  []*tenantQ[T]

	cmu    sync.Mutex // serialises the DRR scan state
	cursor int

	waiters atomic.Int32
	wake    chan struct{}

	closedCh  chan struct{}
	closeOnce sync.Once
}

// New builds a scheduler. Tenants named in cfg.Weights get their rings
// eagerly so the first request pays no write-lock; unknown tenants are
// added on first push with weight 1.
func New[T any](cfg Config) *Sched[T] {
	s := &Sched[T]{
		cfg:      cfg.withDefaults(),
		queues:   make(map[string]*tenantQ[T]),
		wake:     make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	for name := range s.cfg.Weights {
		s.addQueue(name)
	}
	return s
}

func (s *Sched[T]) weightOf(name string) int {
	if w := s.cfg.Weights[name]; w > 1 {
		return w
	}
	return 1
}

// addQueue inserts a tenant under the write lock; idempotent.
func (s *Sched[T]) addQueue(name string) *tenantQ[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queues[name]; ok {
		return q
	}
	q := &tenantQ[T]{name: name, weight: s.weightOf(name), buf: ring.New[T](s.cfg.QueueCap)}
	s.queues[name] = q
	s.order = append(s.order, q)
	return q
}

func (s *Sched[T]) queue(name string) *tenantQ[T] {
	s.mu.RLock()
	q := s.queues[name]
	s.mu.RUnlock()
	if q == nil {
		q = s.addQueue(name)
	}
	return q
}

// Push enqueues v on tenant's ring. It returns false when that tenant's
// ring is full — the caller applies its overload policy; other tenants'
// capacity is unaffected. Pushing to a closed scheduler is a caller bug,
// mirroring ring.Buf.
func (s *Sched[T]) Push(tenant string, v T) bool {
	if !s.queue(tenant).buf.TryPush(v) {
		return false
	}
	s.signal()
	return true
}

// TryPop runs one deficit-round-robin scan. Each visit either serves the
// cursor's tenant (consuming one deficit credit, refreshed from
// weight×quantum whenever it is exhausted) or forfeits an empty tenant's
// remaining credit and advances — so a tenant with weight w gets up to
// w×quantum consecutive pops before the cursor moves on, and empty tenants
// cost one scan step each.
func (s *Sched[T]) TryPop() (T, bool) {
	var zero T
	s.mu.RLock()
	order := s.order
	s.mu.RUnlock()
	n := len(order)
	if n == 0 {
		return zero, false
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.cursor >= n {
		s.cursor = 0
	}
	for visits := 0; visits < n; visits++ {
		q := order[s.cursor]
		if q.deficit <= 0 {
			q.deficit = q.weight * quantum
		}
		if v, ok := q.buf.TryPop(); ok {
			q.deficit--
			if q.deficit <= 0 {
				s.cursor = (s.cursor + 1) % n
			}
			return v, true
		}
		q.deficit = 0
		s.cursor = (s.cursor + 1) % n
	}
	return zero, false
}

// nonEmpty reports whether any tenant ring holds work.
func (s *Sched[T]) nonEmpty() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, q := range s.order {
		if q.buf.Len() > 0 {
			return true
		}
	}
	return false
}

// Len returns the approximate number of queued items across all tenants.
func (s *Sched[T]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int
	for _, q := range s.order {
		n += q.buf.Len()
	}
	return n
}

// signal hands one wake token to parked consumers (ring's eventcount
// protocol: only touch the channel when a waiter is registered).
func (s *Sched[T]) signal() {
	if s.waiters.Load() == 0 {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// chainWake re-publishes a consumed wake token while work remains and
// consumers are parked, so a burst collapsed into one token wakes the whole
// pool (see ring.Buf.chainWake for the full argument).
func (s *Sched[T]) chainWake(woken bool) {
	if !woken || s.waiters.Load() == 0 || !s.nonEmpty() {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// PopWait dequeues the next item in weighted-fair order, parking until one
// arrives. It returns ok == false when stop becomes ready, or when the
// scheduler has been closed and fully drained. A nil stop never fires.
func (s *Sched[T]) PopWait(stop <-chan struct{}) (T, bool) {
	var zero T
	woken := false
	for {
		select {
		case <-stop:
			return zero, false
		default:
		}
		if v, ok := s.TryPop(); ok {
			s.chainWake(woken)
			return v, true
		}
		select {
		case <-s.closedCh:
			// Closed: drain what remains, then report exhaustion.
			return s.TryPop()
		default:
		}
		s.waiters.Add(1)
		// Re-poll after registering: a concurrent producer either sees the
		// waiter or we see its item — a wakeup is never lost.
		if v, ok := s.TryPop(); ok {
			s.waiters.Add(-1)
			s.chainWake(woken)
			return v, true
		}
		select {
		case <-s.wake:
			woken = true
		case <-s.closedCh:
		case <-stop:
			s.waiters.Add(-1)
			return zero, false
		}
		s.waiters.Add(-1)
	}
}

// Close marks the scheduler closed and wakes every parked consumer; they
// drain the remaining items and then see ok == false. The caller must have
// stopped all producers first.
func (s *Sched[T]) Close() {
	s.closeOnce.Do(func() { close(s.closedCh) })
}

// Stats returns the ring telemetry aggregated across tenants.
func (s *Sched[T]) Stats() ring.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out ring.Stats
	for _, q := range s.order {
		st := q.buf.Stats()
		out.Pushes += st.Pushes
		out.Pops += st.Pops
		out.Rejects += st.Rejects
		out.Parks += st.Parks
	}
	return out
}

// TenantStats returns the per-tenant ring telemetry, keyed by tenant name.
func (s *Sched[T]) TenantStats() map[string]ring.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]ring.Stats, len(s.order))
	for _, q := range s.order {
		out[q.name] = q.buf.Stats()
	}
	return out
}
