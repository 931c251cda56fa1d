package repair

import (
	"container/heap"
	"strconv"
	"sync"

	"sprout/internal/ring"
)

// item is one pending chunk repair. Priority is fewest surviving chunks
// first: the objects closest to data loss are rebuilt before merely
// under-replicated ones, and seq breaks ties FIFO.
type item struct {
	object    string
	chunk     int
	surviving int
	attempts  int
	seq       uint64
}

type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].surviving != h[j].surviving {
		return h[i].surviving < h[j].surviving
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(*item)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// repairQueue is the prioritized repair queue. Every pending item lives in
// a survivors-ascending heap under a mutex — priority is strict, so a chunk
// one failure from loss enqueued last is still repaired first — but the
// worker hand-off is lock-free: pushes publish wake tokens through a ring,
// and idle workers park on the ring's eventcount instead of a condition
// variable. A woken worker claims the heap-min; a token that finds the heap
// already drained is a benign spurious wake. The token invariant (heap
// non-empty ⇒ at least one token pending or being replenished) holds
// because a worker that pops an item while more remain immediately
// re-publishes a token, so a full-ring token drop can never strand work.
type repairQueue struct {
	wake *ring.Buf[struct{}]

	mu     sync.Mutex
	heap   itemHeap
	queued map[string]bool // object/chunk keys currently enqueued
	seq    uint64
	closed bool
}

// newRepairQueue sizes the wake ring to roughly the worker pool: enough
// tokens that every worker can be woken at once without producers ever
// blocking on the hand-off.
func newRepairQueue(workers int) *repairQueue {
	cap := 2 * workers
	if cap < 4 {
		cap = 4
	}
	return &repairQueue{
		wake:   ring.New[struct{}](cap),
		queued: make(map[string]bool),
	}
}

func chunkID(object string, chunk int) string {
	return object + "/" + strconv.Itoa(chunk)
}

// push enqueues a chunk repair unless the same chunk is already queued.
// Returns whether the item was accepted.
func (q *repairQueue) push(object string, chunk, surviving, attempts int) bool {
	key := chunkID(object, chunk)
	q.mu.Lock()
	if q.closed || q.queued[key] {
		q.mu.Unlock()
		return false
	}
	q.queued[key] = true
	q.seq++
	heap.Push(&q.heap, &item{
		object:    object,
		chunk:     chunk,
		surviving: surviving,
		attempts:  attempts,
		seq:       q.seq,
	})
	q.mu.Unlock()
	// A dropped token (full ring) is fine: a full ring already holds enough
	// tokens to wake every worker, and each woken worker replenishes while
	// items remain.
	q.wake.TryPush(struct{}{})
	return true
}

// pop blocks until an item is available or the queue is closed and fully
// drained (nil). Priority is resolved here, at claim time: the heap-min is
// always the chunk currently closest to data loss. The popped chunk stays
// marked as queued until done is called, so a scan racing an in-flight
// repair cannot enqueue a duplicate.
func (q *repairQueue) pop() *item {
	for {
		q.mu.Lock()
		if len(q.heap) > 0 {
			it := heap.Pop(&q.heap).(*item)
			remaining := len(q.heap) > 0
			q.mu.Unlock()
			if remaining {
				// Keep the token invariant for the other parked workers.
				q.wake.TryPush(struct{}{})
			}
			return it
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return nil
		}
		if _, ok := q.wake.PopWait(nil); !ok {
			// Ring closed: loop once more to drain any heap remnants before
			// reporting exhaustion.
			q.mu.Lock()
			empty := len(q.heap) == 0
			q.mu.Unlock()
			if empty {
				return nil
			}
		}
	}
}

// done clears a chunk's membership mark after its repair attempt finished.
func (q *repairQueue) done(object string, chunk int) {
	q.mu.Lock()
	delete(q.queued, chunkID(object, chunk))
	q.mu.Unlock()
}

func (q *repairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

func (q *repairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake.Close()
}

// stats exposes the wake ring's telemetry counters: parks count workers
// that actually went to sleep, rejects count benign token drops under
// burst.
func (q *repairQueue) stats() ring.Stats { return q.wake.Stats() }
