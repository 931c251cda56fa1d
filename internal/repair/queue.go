package repair

import (
	"container/heap"
	"strconv"
	"sync"
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

// repairQueue is the prioritized repair queue: a survivors-ascending heap
// under a mutex, with idle workers waiting on a condition variable. Priority
// is resolved when a worker claims an item, so a chunk one failure from loss
// enqueued last is still repaired first.
type repairQueue struct {
	mu     sync.Mutex
	ready  sync.Cond // signalled on push, broadcast on close
	heap   itemHeap
	queued map[string]bool // object/chunk keys currently enqueued
	seq    uint64
	closed bool
}

func newRepairQueue() *repairQueue {
	q := &repairQueue{queued: make(map[string]bool)}
	q.ready.L = &q.mu
	return q
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
	q.ready.Signal()
	return true
}

// pop blocks until an item is available or the queue is closed and fully
// drained (nil). Priority is resolved here, at claim time: the heap-min is
// always the chunk currently closest to data loss. The popped chunk stays
// marked as queued until done is called, so a scan racing an in-flight
// repair cannot enqueue a duplicate.
func (q *repairQueue) pop() *item {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.ready.Wait()
	}
	if len(q.heap) == 0 {
		return nil
	}
	return heap.Pop(&q.heap).(*item)
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
	q.ready.Broadcast()
}
