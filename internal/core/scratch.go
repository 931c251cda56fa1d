package core

import (
	"context"
	"time"

	"sprout/internal/arena"
	"sprout/internal/erasure"
)

// readScratch aggregates every buffer one read attempt needs — the chunk
// set, stripe infos, candidate list and ranking keys, scheduler picks,
// decode scratch and the fetch fan-out slots — so the warm read path
// performs no allocations at all. A scratch is owned by exactly one Read
// call at a time and recycled through readScratchPool.
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

	dec erasure.DecodeScratch

	// slots carries the in-flight fetch fan-out; slot i is owned by whoever
	// completes candidate i — a fetch worker or the asynchronous fetcher —
	// from launch until its index appears on results. results is buffered to
	// at least len(cands), so a straggler's send never blocks even after the
	// read abandoned the scratch. refs gathers the launches of one point for
	// an asynchronous fetcher's StartFetches.
	slots   []fetchSlot
	results chan int32
	refs    []FetchRef
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
// left fetches outstanding, in which case a straggler's completion may still
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

// fetchSlot is one fetch of a read's fan-out, and the sink its outcome is
// delivered to: the read fills the input fields at launch, whoever obtains
// the bytes calls FetchDone, which stores the outputs and sends the slot's
// index on sc.results. A slot pointer is all that changes hands, so the
// fan-out allocates nothing once the scratch is warm.
type fetchSlot struct {
	// Set by the read at launch.
	ctrl   *Controller
	sc     *readScratch
	idx    int32
	hedged bool
	cand   fetchCandidate
	start  time.Time
	// What a fetch worker needs to run the blocking fetch; unset when an
	// asynchronous fetcher was handed the slot as a FetchRef.
	ctx     context.Context
	fetcher ChunkFetcher
	fileID  int

	// Set by FetchDone before it sends idx on sc.results.
	data []byte
	info StripeInfo
	err  error
}

// FetchDone implements FetchSink. It is the one completion of every storage
// fetch of the read plane — initial, failover or hedge, from a fetch worker
// or from an asynchronous fetcher's goroutine — and so the one place a fetch
// is counted out of its node's in-flight backlog and reported to the node's
// circuit breaker (latency included, so slow nodes trip breakers with a
// latency threshold even while answering correctly). A hedge loser keeps its
// node busy until this runs. The send is the last touch: once the read has
// received the index the slot may be recycled.
func (s *fetchSlot) FetchDone(data []byte, info StripeInfo, err error) {
	c := s.ctrl
	c.nodeInFlight[s.cand.node].Add(-1)
	c.serve.Breakers.Observe(s.cand.nodeID, err, time.Since(s.start))
	s.data, s.info, s.err = data, info, err
	// The results channel is buffered to the attempt's full fan-out, so this
	// send never blocks — even when the read already gave up.
	s.sc.results <- s.idx
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

// dispatchFetch hands a launched fetch of a blocking fetcher to an idle
// worker, spawning a fresh one only when the free list is empty (cold start
// or concurrency growth). Steady state reuses parked workers, so the fan-out
// launches without the per-request goroutine and closure allocations of
// `go func(){...}()`.
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

// fetchWorkerLoop runs blocking fetches until poisoned (nil slot) or
// retired. The worker re-parks itself on the idle list BEFORE completing the
// slot, so by the time the read processes the result the worker is already
// reusable for the failover or hedge that result may trigger.
func (c *Controller) fetchWorkerLoop(w *fetchWorker) {
	defer c.fwWG.Done()
	for {
		slot := <-w.jobs
		if slot == nil {
			return
		}
		data, info, err := fetchChunkV(slot.ctx, slot.fetcher, slot.fileID, slot.cand.chunkIndex, slot.cand.nodeID)
		exit := false
		c.fwMu.Lock()
		if c.fwClosed || len(c.fwIdle) >= maxIdleFetchWorkers {
			exit = true
		} else {
			c.fwIdle = append(c.fwIdle, w)
		}
		c.fwMu.Unlock()
		slot.FetchDone(data, info, err)
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
