package core

import (
	"bytes"
	"fmt"
	"sync"

	"sprout/internal/arena"
	"sprout/internal/ring"
)

// fillArena recycles the chunk copies that background fills carry. A read
// that enqueues a fill does not hand over its decode output — that memory
// is the caller's payload buffer — it copies the data chunks into a leased
// buffer the fill job owns until runFill (or the enqueue/Close drop paths)
// releases it.
var fillArena = arena.New("core_fill_chunks")

// FillArena exposes the fill-copy arena's lease accounting for leak checks
// and metrics.
func FillArena() *arena.Arena { return fillArena }

// FillQueueStats exposes the background-fill queue's telemetry counters.
func (c *Controller) FillQueueStats() ring.Stats { return c.fillQ.Stats() }

// fillQueueCap bounds the fill job queue; when full, fill jobs are dropped
// (the next read of the file re-enqueues).
const fillQueueCap = 64

// fillJob asks the background pool to materialise the pending cache
// allocation of one file. The file's k decoded data chunks live
// back-to-back in lease.B (k slices of chunkSize bytes); stripe records
// which stripe version they were decoded from (zero when the backend is
// unversioned), so a fill racing an overwrite never installs chunks
// generated from superseded data.
type fillJob struct {
	fileID    int
	k         int
	chunkSize int
	lease     *arena.Buf
	stripe    StripeInfo
}

// fillTracker counts queued plus running fill jobs so WaitFills can block
// until the pool drains.
type fillTracker struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
}

func (t *fillTracker) add(n int) {
	t.mu.Lock()
	if t.cond == nil {
		t.cond = sync.NewCond(&t.mu)
	}
	t.active += n
	if t.active <= 0 {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

func (t *fillTracker) wait() {
	t.mu.Lock()
	if t.cond == nil {
		t.cond = sync.NewCond(&t.mu)
	}
	for t.active > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// enqueueFill copies a decoded file — its k data chunks back-to-back in data,
// padding included — into an arena lease and hands it to the background
// materialisation pool through the weighted-fair fill scheduler, queued under
// the reading tenant so one tenant's fill backlog cannot starve or overflow
// another's. At most one job per file is in flight; when the tenant's queue is
// full the job is dropped (lease released) and the file's next read
// re-enqueues it.
func (c *Controller) enqueueFill(tenant string, fileID, k int, data []byte, stripe StripeInfo) {
	if _, loaded := c.fillInFlight.LoadOrStore(fileID, struct{}{}); loaded {
		return
	}
	lease := fillArena.Lease(len(data))
	copy(lease.B, data)
	c.fills.add(1)
	job := fillJob{fileID: fileID, k: k, chunkSize: len(data) / k, lease: lease, stripe: stripe}
	if c.fillQ.Push(tenant, job) {
		c.stats.fillsEnqueued.Add(1)
	} else {
		lease.Release()
		c.fillInFlight.Delete(fileID)
		c.fills.add(-1)
		c.stats.fillsDropped.Add(1)
	}
}

// WaitFills blocks until every queued or running background fill has
// completed. Intended for tests, benchmarks, and orderly shutdown points;
// reads continue to work while it waits.
func (c *Controller) WaitFills() { c.fills.wait() }

// fillWorker consumes the fill queue, parking while it is empty. On stop it
// abandons immediately; Close drains and releases whatever remains queued.
func (c *Controller) fillWorker() {
	defer c.fillWG.Done()
	var views [][]byte
	for {
		job, ok := c.fillQ.PopWait(c.stopCh)
		if !ok {
			return
		}
		if cap(views) < job.k {
			views = make([][]byte, job.k)
		}
		c.runFill(job, views[:job.k])
	}
}

// runFill rebuilds the chunk views over the job's lease, installs the fill,
// and releases the lease on every path.
func (c *Controller) runFill(job fillJob, views [][]byte) {
	defer func() {
		job.lease.Release()
		c.fillInFlight.Delete(job.fileID)
		c.fills.add(-1)
	}()
	for i := range views {
		views[i] = job.lease.B[i*job.chunkSize : (i+1)*job.chunkSize]
	}
	if err := c.installFill(job.fileID, views, job.stripe); err != nil {
		c.stats.fillErrors.Add(1)
		if c.serve.Logf != nil {
			c.serve.Logf("core: background fill of file %d: %v", job.fileID, err)
		}
	}
}

// installFill builds the file's pending cache set from its reconstructed
// data chunks (borrowed: the caller may reuse them once it returns) and
// installs it, completing a fill. The chunk generation runs outside the
// control-plane mutex; the install revalidates the pending target against
// the current epoch under the mutex, so fills racing a plan change (e.g. an
// allocation that shrank again) never install chunks beyond the live plan —
// and revalidates the stripe version, so a fill holding data decoded before
// an overwrite never clobbers the cache with superseded chunks.
func (c *Controller) installFill(fileID int, dataChunks [][]byte, stripe StripeInfo) error {
	meta := c.files[fileID]
	for attempt := 0; attempt < 3; attempt++ {
		target, ok := c.epoch.Load().pending[fileID]
		if !ok {
			return nil // already materialised or no longer planned
		}
		if target > meta.K {
			target = meta.K
		}
		cacheSet, err := meta.Code.CacheSet(dataChunks, target)
		if err != nil {
			return fmt.Errorf("core: generating cache chunks for file %d: %w", fileID, err)
		}
		if target == meta.K {
			// CacheSet returned the borrowed data chunks themselves; the
			// cache needs memory of its own.
			cacheSet = cloneChunks(cacheSet)
		}

		c.mu.Lock()
		cur, ok := c.epoch.Load().pending[fileID]
		if !ok {
			c.mu.Unlock()
			return nil
		}
		if cur > meta.K {
			cur = meta.K
		}
		if cur != target {
			// The plan moved while we were generating; recompute.
			c.mu.Unlock()
			continue
		}
		if have := c.cacheInfo[fileID].Load(); have != nil && have.Version != 0 &&
			(stripe.Version == 0 || have.Version > stripe.Version) {
			// The cache already holds chunks of a known stripe and this fill
			// cannot prove it is at least as new (older version, or decoded
			// before the store became versioned); installing it would
			// resurrect stale data over a write-through refresh.
			c.mu.Unlock()
			return nil
		}
		c.installCacheSetLocked(meta, dataChunks, cacheSet)
		if stripe.Version != 0 {
			info := stripe
			c.cacheInfo[fileID].Store(&info)
		}
		c.swapEpochLocked(func(e *epoch) { delete(e.pending, fileID) })
		c.stats.lazyFills.Add(1)
		c.mu.Unlock()
		return nil
	}
	// The plan kept changing under us; leave the file pending — its next
	// read re-enqueues the fill.
	return nil
}

// installCacheSetLocked swaps the file's cached chunks for set (nil evicts
// the file), which must be CacheSet(dataChunks, len(set)), in one cache
// critical section: a reader visits the old set or the new one, never a mix.
// It returns how many chunks were evicted and installed. Must be called with
// c.mu held — every cache mutation is, which is what makes the room left for
// a refused set exact.
func (c *Controller) installCacheSetLocked(meta FileMeta, dataChunks, set [][]byte) (evicted, installed int) {
	evicted, ok := c.cache.ReplaceFile(meta.ID, meta.Code.CacheRows(len(set)), set)
	if !ok {
		// Another file took the room since set was built. Install the
		// functional rows for the count that fits, also when set is the
		// systematic one: that is only ever installed whole, because a part
		// of it would be an exact-caching subset shadowing storage chunks
		// 0..room-1 and cost the scheduler that many placement choices.
		room := c.cache.Capacity() - c.cache.Len() + c.cache.ChunksForFile(meta.ID)
		// room < len(set) <= k and dataChunks built set, so this cannot
		// fail; if it did, the nil set would evict the stale chunks.
		set, _ = meta.Code.CacheSet(dataChunks, room)
		// A set of room chunks fits by construction.
		evicted, _ = c.cache.ReplaceFile(meta.ID, meta.Code.CacheRows(len(set)), set)
	}
	return evicted, len(set)
}

// cloneChunks returns copies of the chunks in a slice of its own.
func cloneChunks(chunks [][]byte) [][]byte {
	out := make([][]byte, len(chunks))
	for i, ch := range chunks {
		out[i] = bytes.Clone(ch)
	}
	return out
}
