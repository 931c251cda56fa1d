package core

import (
	"context"
	"sync"
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

	// slots carries the in-flight fetch fan-out; slot i is owned by the
	// fetcher from launch until its index appears on results. bufs[i] is the
	// chunk-sized buffer slot i hands an asynchronous fetcher as FetchRef.Buf;
	// it outlives the slot's reset, so a warm read's fetched chunks land in
	// memory the scratch already has. results is buffered to at least
	// len(cands), so a straggler's send never blocks even after the read
	// abandoned the scratch. refs gathers the launches of one point for the
	// fetcher's StartFetches. blocking is that fetcher when the caller's only
	// has the blocking FetchChunk, bound for one fan-out.
	slots    []fetchSlot
	bufs     [][]byte
	results  chan int32
	refs     []FetchRef
	blocking blockingFetches
	// outstanding counts fetches launched but not yet received by the last
	// parallel fan-out. Non-zero at release time means a straggler may still
	// write into slots or bufs — the scratch is abandoned to the GC instead
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
// left fetches outstanding, in which case a straggler may still receive its
// chunk into sc.bufs, write into sc.slots and send on sc.results; recycling
// it would hand those writes to an unrelated request, so the scratch is
// abandoned (Forget balances the leak counter; the GC reclaims it once the
// last straggler finishes).
func putReadScratch(sc *readScratch) {
	if sc.outstanding > 0 {
		readScratchPool.Forget()
		return
	}
	// Drop payload references so a parked scratch does not pin them until
	// its next use.
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

	// Set by FetchDone before it sends idx on sc.results.
	data []byte
	info StripeInfo
	err  error
}

// FetchDone implements FetchSink. It is the one completion of every storage
// fetch of the read plane — initial, failover or hedge, from whichever of the
// fetcher's goroutines has the outcome — and so the one place a fetch
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

// blockingFetches presents a fetcher that only has the blocking FetchChunk
// as an AsyncChunkFetcher, for the one fan-out it is bound to: StartFetches
// runs each fetch on a goroutine of its own, which completes the ref's sink
// with what FetchChunkV returned and is counted on the controller's fetchWG
// until then, so Close can wait for it. It lives in the read scratch, so
// binding allocates nothing. Its fetches are the only ones that can be
// cancelled one fan-out at a time — through the context they run under — so
// the hedge-loser cancellation is its own (bind, release).
type blockingFetches struct {
	ChunkFetcher
	wg     *sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// bind makes b the asynchronous face of fetcher for one fan-out under ctx,
// the context StartFetches will be handed. A fan-out that hedges may return
// with fetches still running and binds cancellable; any other has received
// every outcome by the time it succeeds.
func (b *blockingFetches) bind(ctx context.Context, wg *sync.WaitGroup, fetcher ChunkFetcher, cancellable bool) {
	b.ChunkFetcher, b.wg, b.ctx = fetcher, wg, ctx
	if cancellable {
		b.ctx, b.cancel = context.WithCancel(ctx)
	}
}

// StartFetches implements AsyncChunkFetcher.
func (b *blockingFetches) StartFetches(_ context.Context, fileID int, refs []FetchRef) {
	for _, ref := range refs {
		b.wg.Add(1)
		go fetchBlocking(b.ctx, b.wg, b.ChunkFetcher, fileID, ref)
	}
}

// fetchBlocking runs one blocking fetch and completes its sink. It takes what
// it needs by value, so nothing reads the binding after release.
func fetchBlocking(ctx context.Context, wg *sync.WaitGroup, fetcher ChunkFetcher, fileID int, ref FetchRef) {
	defer wg.Done()
	data, info, err := fetchChunkV(ctx, fetcher, fileID, ref.ChunkIndex, ref.NodeID)
	ref.Sink.FetchDone(data, info, err)
}

// release ends the binding, cancelling the fetches of a cancellable one that
// are still running.
func (b *blockingFetches) release() {
	if b.cancel != nil {
		b.cancel()
	}
	*b = blockingFetches{}
}
