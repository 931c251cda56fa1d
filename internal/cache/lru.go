package cache

import (
	"container/list"
	"sync"
)

// LRU is a byte-capacity least-recently-used cache, the policy Ceph's cache
// tier uses and the baseline the paper compares against. Keys are arbitrary
// strings (the object-store substrate uses object names); values are byte
// slices whose length counts against the capacity.
type LRU struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List
	items    map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry struct {
	key   string
	value []byte
}

// NewLRU creates an LRU cache with the given capacity in bytes.
func NewLRU(capacityBytes int64) *LRU {
	if capacityBytes < 0 {
		capacityBytes = 0
	}
	return &LRU{
		capacity: capacityBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Put inserts or updates an entry, evicting least-recently-used entries as
// needed. It returns ErrTooLarge if the value alone exceeds the capacity.
func (c *LRU) Put(key string, value []byte) error {
	size := int64(len(value))
	if size > c.capacity {
		return ErrTooLarge
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*lruEntry)
		c.used += size - int64(len(entry.value))
		entry.value = value
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&lruEntry{key: key, value: value})
		c.items[key] = el
		c.used += size
	}
	for c.used > c.capacity {
		c.evictOldestLocked()
	}
	return nil
}

// Get returns the cached value and marks it most recently used.
func (c *LRU) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Remove deletes an entry if present.
func (c *LRU) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeElementLocked(el)
	}
}

// Stats returns cumulative hit, miss and eviction counts.
func (c *LRU) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

func (c *LRU) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.evictions++
	c.removeElementLocked(el)
}

func (c *LRU) removeElementLocked(el *list.Element) {
	entry := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, entry.key)
	c.used -= int64(len(entry.value))
}
