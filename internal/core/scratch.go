package core

import (
	"context"

	"sprout/internal/arena"
	"sprout/internal/cancel"
	"sprout/internal/erasure"
)

// readScratch aggregates every buffer one read attempt needs — the chunk
// set, stripe infos, candidate list and ranking keys, scheduler picks,
// decode scratch, the cancellation flag, and the fetch fan-out slots — so
// the warm read path performs no allocations at all. A scratch is owned by
// exactly one Read call at a time and recycled through readScratchPool.
type readScratch struct {
	chunks  []erasure.Chunk
	infos   []StripeInfo
	cands   []fetchCandidate
	demoted []fetchCandidate
	picks   []int
	// work[i] is the expected completion of one more fetch on cands[i]'s
	// node, the key candidates() ranks by.
	work []float64
	// used is a bitset over chunk indices (GF(2^8) bounds a code to 256
	// chunks, so four words always suffice).
	used [4]uint64

	dec  erasure.DecodeScratch
	flag cancel.Flag

	// slots carries the in-flight fetch fan-out; slot i is owned by the
	// worker running candidate i from dispatch until its index appears on
	// results. results is buffered to at least len(cands), so a straggler's
	// send never blocks even after the read abandoned the scratch.
	slots   []fetchSlot
	results chan int32
	// outstanding counts fetches launched but not yet received by the last
	// parallel fan-out. Non-zero at release time means a straggler may
	// still write into slots — the scratch is abandoned to the GC instead
	// of recycled (see putReadScratch).
	outstanding int
}

func (sc *readScratch) markUsed(i int) { sc.used[i>>6] |= 1 << (uint(i) & 63) }
func (sc *readScratch) isUsed(i int) bool {
	return sc.used[i>>6]&(1<<(uint(i)&63)) != 0
}

// readScratchPool recycles read scratches across requests; counted so leak
// tests can prove every error and cancel path returns its lease.
var readScratchPool = arena.NewCountedPool("core_read_scratch", func() any { return new(readScratch) })

// ReadScratchPool exposes the read-scratch pool's lease accounting for
// leak checks and metrics.
func ReadScratchPool() *arena.CountedPool { return readScratchPool }

func getReadScratch() *readScratch {
	return readScratchPool.Get().(*readScratch)
}

// putReadScratch returns a scratch to the pool — unless the last fan-out
// left fetches outstanding, in which case a straggler worker may still
// write into sc.slots and send on sc.results; recycling it would hand
// those writes to an unrelated request, so the scratch is abandoned
// (Forget balances the leak counter; the GC reclaims it once the last
// straggler finishes).
func putReadScratch(sc *readScratch) {
	if sc.outstanding > 0 {
		readScratchPool.Forget()
		return
	}
	// Drop payload, fetcher, and context references so a parked scratch
	// does not pin them until its next use.
	clear(sc.chunks)
	sc.chunks = sc.chunks[:0]
	sc.infos = sc.infos[:0]
	sc.cands = sc.cands[:0]
	sc.demoted = sc.demoted[:0]
	sc.picks = sc.picks[:0]
	clear(sc.slots)
	readScratchPool.Put(sc)
}

// fetchSlot is the mailbox between a read and one fetch worker: the read
// fills the input fields and dispatches, the worker runs the fetch, stores
// the outputs, and sends the slot's index on sc.results. Passing a slot
// pointer over a per-worker channel keeps the whole hand-off
// allocation-free once the worker pool is warm.
type fetchSlot struct {
	// Set by the read before dispatch.
	ctx     context.Context
	fetcher ChunkFetcher
	sc      *readScratch
	fileID  int
	idx     int32
	hedged  bool
	cand    fetchCandidate

	// Set by the worker before it sends idx on sc.results.
	data []byte
	info StripeInfo
	err  error
}

// fetchWorker is one reusable fetch goroutine. Its job channel holds one
// slot so a dispatcher that popped the worker from the idle list can hand
// over without waiting for the worker to reach its receive.
type fetchWorker struct {
	jobs chan *fetchSlot
}

// maxIdleFetchWorkers bounds the parked-worker free list; workers beyond
// it exit after their fetch instead of parking, so a short burst does not
// pin goroutines forever.
const maxIdleFetchWorkers = 256

// dispatchFetch hands a fetch to an idle worker, spawning a fresh one only
// when the free list is empty (cold start or concurrency growth). Steady
// state reuses parked workers, so the fan-out launches without the
// per-request goroutine and closure allocations of `go func(){...}()`.
func (c *Controller) dispatchFetch(slot *fetchSlot) {
	c.fwMu.Lock()
	if n := len(c.fwIdle); n > 0 {
		w := c.fwIdle[n-1]
		c.fwIdle[n-1] = nil
		c.fwIdle = c.fwIdle[:n-1]
		c.fwMu.Unlock()
		w.jobs <- slot
		return
	}
	c.fwMu.Unlock()
	w := &fetchWorker{jobs: make(chan *fetchSlot, 1)}
	w.jobs <- slot
	c.fwWG.Add(1)
	go c.fetchWorkerLoop(w)
}

// fetchWorkerLoop runs fetches until poisoned (nil slot) or retired. The
// worker re-parks itself on the idle list BEFORE sending the result, so by
// the time the read processes the result the worker is already reusable
// for the failover or hedge that result may trigger.
func (c *Controller) fetchWorkerLoop(w *fetchWorker) {
	defer c.fwWG.Done()
	for {
		slot := <-w.jobs
		if slot == nil {
			return
		}
		slot.data, slot.info, slot.err = c.fetchChunkObserved(slot.ctx, slot.fetcher, slot.fileID, slot.cand)
		exit := false
		c.fwMu.Lock()
		if c.fwClosed || len(c.fwIdle) >= maxIdleFetchWorkers {
			exit = true
		} else {
			c.fwIdle = append(c.fwIdle, w)
		}
		c.fwMu.Unlock()
		// The results channel is buffered to the attempt's full fan-out, so
		// this send never blocks — even when the read already gave up.
		slot.sc.results <- slot.idx
		if exit {
			return
		}
	}
}

// stopFetchWorkers poisons every parked fetch worker and waits for busy
// ones to finish their current fetch and exit. Called from Close after the
// serving path has quiesced (Read must not run concurrently).
func (c *Controller) stopFetchWorkers() {
	c.fwMu.Lock()
	c.fwClosed = true
	idle := c.fwIdle
	c.fwIdle = nil
	c.fwMu.Unlock()
	for _, w := range idle {
		w.jobs <- nil
	}
	c.fwWG.Wait()
}
