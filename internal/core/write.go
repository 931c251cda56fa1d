package core

import (
	"context"
	"fmt"
	"time"
)

// Write ingests new content for a file: the writer stores the object in the
// storage plane (the transport's StripedWriter encodes client-side and
// two-phase-commits the chunks), and the controller then brings its serving
// state up to date in one control-plane step — the file's stale functional
// cache chunks are invalidated and the optimizer's target allocation is
// re-materialised by write-through from the just-encoded data (no storage
// round trip), the byte size is updated for future decodes, any pending
// lazy fill is cancelled, and the workload estimator observes the request
// so the auto-replanner sees write traffic.
//
// Reads concurrent with Write stay lock-free and safe: the storage plane
// serves either the old or the new committed stripe (never a mix, thanks to
// versioned chunk keys), and the read plane's stripe-version check retries
// any read that catches the flip between its chunk fetches.
func (c *Controller) Write(ctx context.Context, fileID int, data []byte, writer ObjectWriter) error {
	_, err := c.WriteVersion(ctx, fileID, data, writer)
	return err
}

// WriteVersion is Write, additionally returning the stripe version the
// storage plane committed (0 for unversioned backends). The sharded router
// uses it to stamp the invalidation messages it fans out to peer shards.
func (c *Controller) WriteVersion(ctx context.Context, fileID int, data []byte, writer ObjectWriter) (uint64, error) {
	start := time.Now()
	if fileID < 0 || fileID >= len(c.files) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownFile, fileID)
	}
	meta := c.files[fileID]
	if c.est != nil {
		c.est.Observe(fileID)
	}
	// The optimizer's target allocation decides whether the payload needs
	// splitting at all; files with no cache allocation skip it entirely —
	// invalidation alone suffices.
	target := 0
	if ep := c.epoch.Load(); ep.plan != nil && fileID < len(ep.plan.D) {
		target = ep.plan.D[fileID]
		if target > meta.K {
			target = meta.K
		}
	}
	var dataChunks [][]byte
	if target > 0 {
		var err error
		if dataChunks, err = meta.Code.Split(data); err != nil {
			c.stats.writeErrors.Add(1)
			return 0, err
		}
	}
	var version uint64
	var err error
	if dw, ok := writer.(DataChunkWriter); ok && dataChunks != nil {
		// Hand the split chunks to the storage write so it does not split
		// the same payload again.
		version, err = dw.WriteDataChunks(ctx, fileID, dataChunks, len(data))
	} else {
		version, err = writer.WriteObject(ctx, fileID, data)
	}
	if err != nil {
		c.stats.writeErrors.Add(1)
		return 0, err
	}

	// The storage plane now serves the new stripe; build the target cache set
	// from the new data before taking the control-plane mutex. For a partial
	// allocation that generates functional chunks (the expensive part); a
	// fully cached file's set is the data chunks themselves, which Split
	// left as views of the caller's buffer, so the cache gets its own clone.
	var cacheSet [][]byte
	if target > 0 {
		if cacheSet, err = meta.Code.CacheSet(dataChunks, target); err != nil {
			c.stats.writeErrors.Add(1)
			return 0, fmt.Errorf("core: generating cache chunks for file %d: %w", fileID, err)
		}
		if target == meta.K {
			cacheSet = cloneChunks(cacheSet)
		}
	}

	c.mu.Lock()
	evicted, installed := 0, 0
	if existing := c.cacheInfo[fileID].Load(); version != 0 && existing != nil && existing.Version > version {
		// Superseded: a concurrent Write committed a newer stripe and already
		// refreshed the cache and size; installing this write's chunks would
		// resurrect content the storage plane has discarded.
	} else {
		c.fileSizes[fileID].Store(int64(len(data)))
		evicted, installed = c.installCacheSetLocked(meta, dataChunks, cacheSet)
		var info *StripeInfo
		if version != 0 {
			info = &StripeInfo{Version: version, Size: len(data)}
		}
		c.cacheInfo[fileID].Store(info)
	}
	// The write-through satisfied (or obsoleted) any pending lazy fill.
	c.swapEpochLocked(func(e *epoch) { delete(e.pending, fileID) })
	c.mu.Unlock()

	c.stats.writes.Add(1)
	c.stats.writeBytes.Add(int64(len(data)))
	c.stats.cacheInvalidations.Add(int64(evicted))
	c.stats.writeThroughChunks.Add(int64(installed))
	c.writeHist.Observe(time.Since(start))
	return version, nil
}

// InvalidateVersion applies a versioned peer invalidation: a write committed
// through another controller shard at the given stripe version. If this
// controller's stripe record is already at or past that version the message
// is late or a duplicate and the call is a no-op (applied=false) — the
// protocol is idempotent under at-least-once delivery. Otherwise the file's
// cached chunks are dropped and a stripe record carrying the new version and
// size is installed, which both redirects future decodes to the new size and
// makes the fill plane's version guard discard any in-flight background fill
// that decoded the superseded stripe. Pending fill targets stay planned: the
// next read re-materialises the allocation from the new committed data.
//
// version must be non-zero.
func (c *Controller) InvalidateVersion(fileID int, version uint64, size int) (bool, error) {
	if fileID < 0 || fileID >= len(c.files) {
		return false, fmt.Errorf("%w: %d", ErrUnknownFile, fileID)
	}
	if version == 0 {
		return false, fmt.Errorf("core: versioned invalidation for file %d carries version 0", fileID)
	}
	c.mu.Lock()
	if existing := c.cacheInfo[fileID].Load(); existing != nil && existing.Version >= version {
		c.mu.Unlock()
		c.stats.invalidationsStale.Add(1)
		return false, nil
	}
	evicted := c.cache.DeleteFile(fileID)
	c.cacheInfo[fileID].Store(&StripeInfo{Version: version, Size: size})
	if size > 0 {
		c.fileSizes[fileID].Store(int64(size))
	}
	c.mu.Unlock()
	c.stats.cacheInvalidations.Add(int64(evicted))
	c.stats.invalidationsApplied.Add(1)
	return true, nil
}
