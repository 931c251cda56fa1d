// Package cache provides the cache-side data structures of Sprout: a
// functional cache store holding coded chunks keyed by file and chunk index,
// and a byte-capacity LRU cache used to emulate the Ceph cache-tier
// baseline. All caches are safe for concurrent use.
package cache

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrTooLarge is returned by LRU.Put for a value larger than the whole cache.
var ErrTooLarge = errors.New("cache: item larger than cache capacity")

// FunctionalCache stores functional (coded) chunks per file according to a
// cache plan. Capacity is expressed in chunks, mirroring the optimizer's
// allocation unit; chunk payloads may be of different sizes across files.
//
// Chunks are indexed per file, so per-file lookups cost O(d_i) rather than a
// scan of the whole cache — the controller's read plane calls VisitFile on
// every request.
type FunctionalCache struct {
	mu       sync.RWMutex
	capacity int
	size     int
	byFile   map[int]map[int][]byte // fileID -> chunkIndex -> payload

	// Atomic, not under mu: lookups count while holding only the read lock.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewFunctionalCache creates a functional cache holding at most capacity
// chunks. A capacity of zero disables caching.
func NewFunctionalCache(capacity int) *FunctionalCache {
	if capacity < 0 {
		capacity = 0
	}
	return &FunctionalCache{
		capacity: capacity,
		byFile:   make(map[int]map[int][]byte),
	}
}

// Capacity returns the configured capacity in chunks.
func (c *FunctionalCache) Capacity() int { return c.capacity }

// Len returns the number of chunks currently cached.
func (c *FunctionalCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size
}

// ChunksForFile returns how many chunks of the given file are cached.
func (c *FunctionalCache) ChunksForFile(fileID int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byFile[fileID])
}

func (c *FunctionalCache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// GetFile returns all cached chunks of a file, keyed by chunk index.
func (c *FunctionalCache) GetFile(fileID int) map[int][]byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	file := c.byFile[fileID]
	out := make(map[int][]byte, len(file))
	for idx, data := range file {
		out[idx] = data
	}
	return out
}

// VisitFile calls visit for every cached chunk of the file until visit
// returns false. The read lock is held for the duration of the visit;
// callbacks must be quick and must not call back into the cache. A visit
// counts as one lookup in Stats: a hit when the file has any chunk cached, a
// miss otherwise.
func (c *FunctionalCache) VisitFile(fileID int, visit func(chunkIndex int, data []byte) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	file := c.byFile[fileID]
	c.count(len(file) > 0)
	for idx, data := range file {
		if !visit(idx, data) {
			return
		}
	}
}

// DeleteFile removes every cached chunk of the file and returns how many
// chunks were evicted.
func (c *FunctionalCache) DeleteFile(fileID int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := len(c.byFile[fileID])
	c.size -= removed
	delete(c.byFile, fileID)
	return removed
}

// ReplaceFile swaps the file's whole chunk set for the given one —
// payloads[i] stored under chunk index indices[i] — in one critical section,
// so a concurrent VisitFile sees the old set or the new one and never a mix
// of the two. It is all or nothing: when the new set would not fit beside
// the other files' chunks the cache is left unchanged and ok is false. An
// empty set deletes the file. evicted is the size of the set replaced.
func (c *FunctionalCache) ReplaceFile(fileID int, indices []int, payloads [][]byte) (evicted int, ok bool) {
	file := make(map[int][]byte, len(indices))
	for i, idx := range indices {
		file[idx] = payloads[i]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted = len(c.byFile[fileID])
	if c.size-evicted+len(file) > c.capacity {
		return 0, false
	}
	c.size += len(file) - evicted
	if len(file) == 0 {
		delete(c.byFile, fileID)
	} else {
		c.byFile[fileID] = file
	}
	return evicted, true
}

// TrimFile removes chunks of the file until at most keep remain, evicting
// the highest chunk indices first (the chunks generated last). It returns
// the number of evicted chunks.
func (c *FunctionalCache) TrimFile(fileID, keep int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if keep < 0 {
		keep = 0
	}
	file := c.byFile[fileID]
	if len(file) <= keep {
		return 0
	}
	indices := make([]int, 0, len(file))
	for idx := range file {
		indices = append(indices, idx)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(indices)))
	toEvict := indices[:len(indices)-keep]
	for _, idx := range toEvict {
		delete(file, idx)
	}
	c.size -= len(toEvict)
	if len(file) == 0 {
		delete(c.byFile, fileID)
	}
	return len(toEvict)
}

// Stats returns cumulative hit and miss counts.
func (c *FunctionalCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Allocation returns the number of cached chunks per file.
func (c *FunctionalCache) Allocation() map[int]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[int]int, len(c.byFile))
	for fileID, file := range c.byFile {
		out[fileID] = len(file)
	}
	return out
}
