package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sprout/internal/erasure"
	"sprout/internal/scheduler"
)

// readMaxAttempts bounds how often a read is retried after it observed an
// inconsistent stripe (a concurrent overwrite committed mid-read, or the
// cached chunks turned out stale). Each retry re-reads the live epoch and
// cache, so a retry only repeats while writes keep landing on the same file.
const readMaxAttempts = 4

// Read serves a complete file: cached functional chunks are combined with
// chunks fetched (via the fetcher) from the storage nodes candidates()
// ranks first, and the file is decoded. If the file's cache
// allocation grew in this time bin, a background fill job is enqueued after
// decode so the missing functional chunks are generated and installed off
// the read path.
//
// Read is ReadInto with a freshly allocated payload buffer; callers with a
// reusable buffer (the transport's response path, load drivers) should use
// ReadInto directly, which completes warm cache-hit reads without a single
// allocation.
func (c *Controller) Read(ctx context.Context, fileID int, fetcher ChunkFetcher) ([]byte, error) {
	return c.ReadInto(ctx, fileID, fetcher, nil)
}

// ReadInto is Read appending the decoded payload into dst[:0] and returning
// the extended slice (which may have been reallocated if dst lacked
// capacity). The returned slice aliases dst; the caller owns both.
//
// ReadInto is lock-free with respect to the controller: it works off the
// current epoch snapshot and never blocks on PlanTimeBin, fills, writes, or
// other reads. All per-request state lives in a pooled scratch, and the
// request context is consulted only where a read waits or has failed — the
// fast path never calls ctx.Err(). When the fetcher is version-aware,
// every chunk of the decoded stripe is verified to come from one committed
// version — a read racing Controller.Write (or an external overwrite of the
// backing object) retries against the new stripe instead of decoding mixed
// bytes, and cached chunks found stale are dropped and refreshed.
//
// When admission control is on, the saturation gate is consulted once at
// entry: under pressure it progressively drops hedging, then background
// fills, and at the deepest level sheds low-value reads that would need
// storage fetches with ErrSaturated.
//
// When tenant policies are configured (ServeOptions.Tenants), the calling
// tenant is resolved from the context (WithTenant): its SLO class shapes the
// brownout decisions (gold keeps hedging under level 1 and is never shed;
// bronze is shed first), and its latency histogram observes the read.
func (c *Controller) ReadInto(ctx context.Context, fileID int, fetcher ChunkFetcher, dst []byte) ([]byte, error) {
	start := time.Now()
	if fileID < 0 || fileID >= len(c.files) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFile, fileID)
	}
	if c.epoch.Load().plan == nil {
		return nil, ErrNoPlan
	}
	ts := c.tenantOf(TenantFrom(ctx))
	if c.est != nil {
		c.est.Observe(fileID)
	}
	level := 0
	if c.adm != nil {
		c.adm.enter()
		defer c.adm.leave()
		level = c.adm.level()
		if level > 0 {
			c.stats.brownoutReads.Add(1)
		}
	}
	sc := getReadScratch()
	var payload []byte
	var err error
	for attempt := 0; attempt < readMaxAttempts; attempt++ {
		var retryable bool
		payload, retryable, err = c.readOnce(ctx, sc, fileID, fetcher, dst, start, level, ts)
		if err == nil {
			if ts != nil {
				ts.reads.Add(1)
				ts.hist.Observe(time.Since(start))
			}
			break
		}
		if !retryable || ctx.Err() != nil {
			break
		}
		c.stats.readRetries.Add(1)
		if sc.outstanding > 0 {
			// The failed attempt left fetches in flight; their stale results
			// must never be mistaken for this retry's. Retire the scratch
			// (the stragglers keep writing into it harmlessly) and take a
			// fresh one.
			putReadScratch(sc)
			sc = getReadScratch()
		}
	}
	putReadScratch(sc)
	return payload, err
}

// readOnce performs one read attempt against the scratch. It reports
// whether a failure is worth retrying: stripe-version mismatches and decode
// errors can be caused by an overwrite committing mid-read and usually
// resolve on the next attempt.
func (c *Controller) readOnce(ctx context.Context, sc *readScratch, fileID int, fetcher ChunkFetcher, dst []byte, start time.Time, level int, ts *tenantState) ([]byte, bool, error) {
	ep := c.epoch.Load()
	if ep.plan == nil {
		return nil, false, ErrNoPlan
	}
	meta := c.files[fileID]

	// Gather chunks from the cache first. Any k distinct coded chunks decode,
	// so cached chunks always count toward k — including while a fill for a
	// grown allocation is still pending. The stripe record is loaded BEFORE
	// visiting the cache and re-checked after the storage fetches: if a
	// write swaps the cache contents in between, the records differ and the
	// read retries instead of mixing old cached chunks with new storage
	// chunks under the new record.
	cacheStripe := c.cacheInfo[fileID].Load()
	sc.chunks = sc.chunks[:0]
	sc.infos = sc.infos[:0]
	c.cache.VisitFile(fileID, func(idx int, data []byte) bool {
		sc.chunks = append(sc.chunks, erasure.Chunk{Index: idx, Data: data})
		return len(sc.chunks) < meta.K
	})
	fromCache := len(sc.chunks)

	need := meta.K - fromCache
	// Deepest brownout level: shedding follows the SLO ladder — bronze
	// tenants give up every storage-bound read, silver (and the untenanted
	// default) only the files the plan values least, gold none. Cache-
	// complete reads always pass — they cost storage nothing.
	if level >= 3 && need > 0 && ts.shedUnder(ep, fileID) {
		c.stats.shedReads.Add(1)
		if ts != nil {
			ts.sheds.Add(1)
		}
		return nil, false, fmt.Errorf("core: file %d: %w", fileID, ErrSaturated)
	}
	// Priority hedging: a gold tenant keeps its hedge timer through the
	// first brownout level — its stragglers are the ones the SLO pays for —
	// while deeper levels ground everyone.
	fetchLevel := level
	if level == 1 && ts.class() == ClassGold {
		fetchLevel = 0
		c.stats.priorityHedges.Add(1)
	}
	fetchErrs := 0
	var stripe StripeInfo
	if need > 0 {
		errs, err := c.fetchChunks(ctx, sc, fetcher, ep, meta, need, fetchLevel)
		if err != nil {
			return nil, false, err
		}
		fetchErrs = errs
		if stripe, err = singleStripe(fileID, sc.infos); err != nil {
			return nil, true, err
		}
	}
	// The cache contents must not have been swapped while we were reading
	// (a concurrent Write or InvalidateVersion publishes a new stripe record).
	if fromCache > 0 && c.cacheInfo[fileID].Load() != cacheStripe {
		return nil, true, fmt.Errorf("core: file %d: cache refreshed mid-read", fileID)
	}
	// Cached chunks must belong to the same stripe as the fetched ones; when
	// they do not — or when their provenance is unknown while storage serves
	// a versioned stripe — the cache may predate an overwrite (e.g. one that
	// bypassed Controller.Write) and is dropped before the retry re-fetches
	// from storage.
	if fromCache > 0 && stripe.Version != 0 && (cacheStripe == nil || *cacheStripe != stripe) {
		c.dropStaleCache(fileID, cacheStripe)
		if cacheStripe == nil {
			return nil, true, fmt.Errorf("core: file %d: cached chunks of unknown stripe cannot join versioned stripe v%d", fileID, stripe.Version)
		}
		return nil, true, fmt.Errorf("core: file %d: cached chunks are from stripe v%d, storage serves v%d", fileID, cacheStripe.Version, stripe.Version)
	}
	if len(sc.chunks) < meta.K {
		return nil, false, fmt.Errorf("core: only %d of %d chunks available for file %d", len(sc.chunks), meta.K, fileID)
	}

	size := int(c.fileSizes[fileID].Load())
	switch {
	case stripe.Size != 0:
		size = stripe.Size
	case fromCache > 0 && cacheStripe != nil && cacheStripe.Size != 0:
		size = cacheStripe.Size
	}
	// One decode path: every data row lands directly in the caller's buffer.
	// For a fully cached file the chunks are the systematic rows
	// (erasure.CacheRows), so the decode is k copies and nothing else.
	payload, err := meta.Code.DecodeInto(&sc.dec, dst, sc.chunks, size)
	if err != nil {
		return nil, true, err
	}

	// A read is degraded when any storage fetch failed under it (whether or
	// not a backup candidate was launched), or when fewer than k of the
	// file's storage chunks are on live nodes — the read only succeeded
	// because cached chunks made up the shortfall.
	aliveChunks := meta.N
	if len(ep.down) > 0 {
		aliveChunks = 0
		for _, node := range meta.Placement {
			if !ep.down[node] {
				aliveChunks++
			}
		}
	}
	cacheOnly := fromCache == meta.K
	storageShort := aliveChunks < meta.K
	degraded := fetchErrs > 0 || storageShort

	c.stats.reads.Add(1)
	c.stats.chunksFromCache.Add(int64(fromCache))
	c.stats.chunksFromDisk.Add(int64(len(sc.chunks) - fromCache))
	if cacheOnly {
		c.stats.cacheOnlyReads.Add(1)
	}
	if degraded {
		c.stats.degradedReads.Add(1)
		if cacheOnly && storageShort {
			c.stats.cacheRescues.Add(1)
		}
	}
	c.hist.observe(time.Since(start), cacheOnly, degraded)

	if _, ok := ep.pending[fileID]; ok {
		// Level 2 brownout: background materialisation is deferred until the
		// saturation clears — the next read of the file re-triggers the fill.
		if level >= 2 {
			c.stats.fillsSuppressed.Add(1)
		} else {
			fillStripe := stripe
			if fillStripe.Version == 0 && cacheStripe != nil {
				fillStripe = *cacheStripe
			}
			// enqueueFill copies the decoded data chunks — payload's backing
			// holds all k of them, zero padding included — because the fill
			// outlives the caller's buffer. The job queues under the reading
			// tenant's name so the fill scheduler can hold each tenant to
			// its weighted share.
			fillTenant := ""
			if ts != nil {
				fillTenant = ts.policy.Name
			}
			c.enqueueFill(fillTenant, fileID, meta.K, payload[:meta.K*len(sc.chunks[0].Data)], fillStripe)
		}
	}
	return payload, false, nil
}

// singleStripe returns the one stripe every fetched chunk of a read belongs
// to (the zero StripeInfo when the fetcher is unversioned). A mix of versions
// means an overwrite committed between two fetches; a chunk with no version
// next to versioned siblings also means a mix — the backend became versioned
// between the two fetches.
func singleStripe(fileID int, infos []StripeInfo) (StripeInfo, error) {
	var stripe StripeInfo
	sawUnversioned := false
	for _, info := range infos {
		if info.Version == 0 {
			sawUnversioned = true
			continue
		}
		if stripe.Version == 0 {
			stripe = info
		} else if stripe != info {
			return StripeInfo{}, fmt.Errorf("core: file %d: fetched chunks span stripe versions %d and %d", fileID, stripe.Version, info.Version)
		}
	}
	if sawUnversioned && stripe.Version != 0 {
		return StripeInfo{}, fmt.Errorf("core: file %d: fetched chunks mix versioned and unversioned stripes", fileID)
	}
	return stripe, nil
}

// dropStaleCache evicts the file's cached chunks if they still belong to the
// stale stripe (a concurrent write may already have refreshed them).
func (c *Controller) dropStaleCache(fileID int, stale *StripeInfo) {
	c.mu.Lock()
	if c.cacheInfo[fileID].Load() == stale {
		evicted := c.cache.DeleteFile(fileID)
		c.cacheInfo[fileID].Store(nil)
		c.stats.cacheInvalidations.Add(int64(evicted))
		c.stats.staleCacheReloads.Add(1)
	}
	c.mu.Unlock()
}

// fetchCandidate is one possible storage source for a chunk the read still
// needs: the chunk index, and the node holding it both as a position in the
// cluster's node list and as the node ID the fetcher is addressed by.
type fetchCandidate struct {
	chunkIndex int
	node       int
	nodeID     int
}

// candidates fills sc.cands with the storage sources for a read in
// preference order: the file's live placement nodes by ascending expected
// completion (inflight+1)·E[S] of one more fetch, where inflight is this
// controller's outstanding fetches on the node. Ties keep the order of the
// scheduler's Madow draw from π followed by the rest of the placement, so on
// an idle cluster of equal nodes the head is exactly the paper's
// probabilistic pick. The first need entries are fetched; the rest are the
// failover and hedge order. Down nodes are skipped entirely — fetching from
// them would only burn a failover. sc.chunks holds the chunks already in
// hand (from the cache). Returns the healthy-candidate boundary (see
// demoteTripped).
func (c *Controller) candidates(sc *readScratch, ep *epoch, meta FileMeta, need int) int {
	sc.used = [4]uint64{}
	for _, ch := range sc.chunks {
		sc.markUsed(ch.Index)
	}
	rng := c.rngPool.Get().(*rand.Rand)
	u := rng.Float64()
	c.rngPool.Put(rng)
	sc.picks = ep.assignment.AppendPickFrom(sc.picks[:0], meta.ID, u)

	sc.cands = sc.cands[:0]
	for _, node := range sc.picks {
		ci := chunkIndexOnNode(meta, node)
		if ci < 0 || sc.isUsed(ci) || ep.down[node] {
			continue
		}
		sc.markUsed(ci)
		sc.cands = append(sc.cands, fetchCandidate{chunkIndex: ci, node: node, nodeID: nodeIDAt(ep.clu, node)})
	}
	drawn := len(sc.cands)
	for ci, node := range meta.Placement {
		if sc.isUsed(ci) || ep.down[node] {
			continue
		}
		sc.cands = append(sc.cands, fetchCandidate{chunkIndex: ci, node: node, nodeID: nodeIDAt(ep.clu, node)})
	}

	sc.work = sc.work[:0]
	for _, cand := range sc.cands {
		sc.work = append(sc.work, scheduler.ExpectedWork(c.nodeInFlight[cand.node].Load(), c.serviceMean[cand.node]))
	}
	scheduler.RankByWork(sc.cands, sc.work)
	// Only drawn candidates have their chunk marked used, so an unmarked one
	// among the first need means the ranking replaced a node of the draw.
	if drawn >= need {
		for _, cand := range sc.cands[:need] {
			if !sc.isUsed(cand.chunkIndex) {
				c.stats.picksReordered.Add(1)
				break
			}
		}
	}
	return c.demoteTripped(sc)
}

// demoteTripped reorders sc.cands so nodes whose circuit breaker rejects
// traffic sink to the tail: they are avoided while healthier sources exist
// but remain reachable when nothing else is left — unlike down nodes, which
// candidates() excludes outright. Order within each group is preserved. The
// return is the number of non-demoted candidates at the head: the boundary
// hedging must not cross, because speculative fetches into a tripped node
// waste the very capacity the breaker is protecting (and, on an emulated or
// real store, tie up a server worker for the full stall).
func (c *Controller) demoteTripped(sc *readScratch) int {
	br := c.serve.Breakers
	cands := sc.cands
	if br == nil || len(cands) < 2 {
		return len(cands)
	}
	demoted := sc.demoted[:0]
	kept := cands[:0]
	for _, cand := range cands {
		if br.Allow(cand.nodeID) {
			kept = append(kept, cand)
		} else {
			demoted = append(demoted, cand)
		}
	}
	sc.demoted = demoted
	if len(demoted) > 0 {
		c.stats.breakerDemotions.Add(int64(len(demoted)))
	}
	healthy := len(kept)
	sc.cands = append(kept, demoted...)
	return healthy
}

// fetchChunks appends the needed storage chunks (and their stripe infos)
// onto sc.chunks and sc.infos. It returns the number of fetch errors the
// read absorbed.
func (c *Controller) fetchChunks(ctx context.Context, sc *readScratch, fetcher ChunkFetcher, ep *epoch, meta FileMeta, need, level int) (int, error) {
	healthy := c.candidates(sc, ep, meta, need)
	return c.fetchParallel(ctx, sc, fetcher, meta.ID, healthy, need, level)
}

// fetchParallel fans the needed chunk fetches out concurrently over
// sc.cands. Failures fail over to the next unused candidate. When hedging is
// enabled and the read is still incomplete after HedgeDelay, up to
// HedgeExtra additional candidates are launched and the fastest responses
// win. Brownout level >= 1 suppresses hedging: speculative load is the first
// capacity given back under saturation. Hedges only target the first
// `healthy` (non-breaker-demoted) candidates — failover may fall back to a
// tripped node when nothing else is left, but speculative work never
// should. The one exception: a read already forced below the healthy
// boundary at launch (healthy < need) has a required fetch running on a
// suspect node, so hedging over the remaining demoted candidates is rescue,
// not waste.
//
// Every fetch is a launch and a completion. The launch runs here, on the
// read's goroutine: it stamps the start time and counts the fetch in flight
// on its node, so concurrent reads rank against each other's picks, not only
// against fetches that already left. The completion is the slot's FetchDone,
// whoever calls it. In between the fetch is the fetcher's: all the launches
// of one point are handed over in one StartFetches call and completed from
// the fetcher's own goroutines. This is the one place a fetcher that only has
// the blocking FetchChunk is adapted to that shape (blockingFetches).
//
// The read does not cancel a fetch it no longer needs: a hedge loser completes
// into the scratch this read leaves behind. (The adapter does cancel its own,
// the only ones that can be.)
func (c *Controller) fetchParallel(ctx context.Context, sc *readScratch, fetcher ChunkFetcher, fileID int, healthy, need, level int) (int, error) {
	cands := sc.cands
	if cap(sc.slots) < len(cands) {
		sc.slots, sc.bufs = make([]fetchSlot, len(cands)), make([][]byte, len(cands))
	}
	slots := sc.slots[:len(cands)]
	if cap(sc.results) < len(cands) {
		sc.results = make(chan int32, len(cands))
	}
	results := sc.results

	initial := need
	if initial > len(cands) {
		initial = len(cands)
	}
	hedgeBound := healthy
	if healthy < need {
		hedgeBound = len(cands)
	}
	hedging := c.serve.HedgeDelay > 0 && c.serve.HedgeExtra > 0 && initial < hedgeBound
	if hedging && level >= 1 {
		c.stats.hedgesSuppressed.Add(1)
		hedging = false
	}
	async, native := fetcher.(AsyncChunkFetcher)
	if !native {
		sc.blocking.bind(ctx, &c.fetchWG, fetcher, hedging)
		defer sc.blocking.release()
		async = &sc.blocking
	}
	var hedgeC <-chan time.Time
	if hedging {
		timer := time.NewTimer(c.serve.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	k := c.files[fileID].K
	chunkSize := (int(c.fileSizes[fileID].Load()) + k - 1) / k

	launch := func(i int, hedged bool, now time.Time) {
		slot := &slots[i]
		*slot = fetchSlot{ctrl: c, sc: sc, idx: int32(i), hedged: hedged, cand: cands[i], start: now}
		c.nodeInFlight[slot.cand.node].Add(1)
		ref := FetchRef{ChunkIndex: slot.cand.chunkIndex, NodeID: slot.cand.nodeID, Size: chunkSize, Sink: slot}
		if native { // the blocking adapter's fetches would never use Buf
			if cap(sc.bufs[i]) < chunkSize {
				sc.bufs[i] = make([]byte, chunkSize)
			}
			ref.Buf = sc.bufs[i]
		}
		sc.refs = append(sc.refs, ref)
	}
	// start hands the launches gathered since the last call to the fetcher.
	start := func() {
		if len(sc.refs) == 0 {
			return
		}
		async.StartFetches(ctx, fileID, sc.refs)
		clear(sc.refs)
		sc.refs = sc.refs[:0]
	}

	now := time.Now()
	for i := 0; i < initial; i++ {
		launch(i, false, now)
	}
	start()
	next := initial
	outstanding := initial

	got := 0
	fetchErrs := 0
	var lastErr error
	for got < need && outstanding > 0 {
		select {
		case idx := <-results:
			outstanding--
			slot := &slots[idx]
			if slot.err != nil {
				if ctx.Err() != nil {
					sc.outstanding = outstanding
					return fetchErrs, ctx.Err()
				}
				lastErr = fmt.Errorf("core: fetching chunk %d of file %d: %w", slot.cand.chunkIndex, fileID, slot.err)
				// Count every failure (degraded-read classification) even
				// when no backup candidate remains to launch — an in-flight
				// hedge may still complete the read.
				fetchErrs++
				if next < len(cands) {
					launch(next, false, time.Now())
					start()
					next++
					outstanding++
					c.stats.fetchFailovers.Add(1)
				}
				continue
			}
			sc.chunks = append(sc.chunks, erasure.Chunk{Index: slot.cand.chunkIndex, Data: slot.data})
			sc.infos = append(sc.infos, slot.info)
			got++
			if slot.hedged {
				c.stats.hedgeWins.Add(1)
			}
		case <-hedgeC:
			hedgeC = nil
			now := time.Now()
			for extra := 0; extra < c.serve.HedgeExtra && next < hedgeBound; extra++ {
				launch(next, true, now)
				next++
				outstanding++
				c.stats.hedgesLaunched.Add(1)
			}
			start()
		case <-ctx.Done():
			sc.outstanding = outstanding
			return fetchErrs, ctx.Err()
		}
	}
	sc.outstanding = outstanding
	if got < need {
		return fetchErrs, fetchShortfallError(fileID, got, need, lastErr)
	}
	return fetchErrs, nil
}

func fetchShortfallError(fileID, got, need int, lastErr error) error {
	if lastErr != nil {
		return lastErr
	}
	return fmt.Errorf("core: only %d of %d needed chunks fetched for file %d", got, need, fileID)
}
