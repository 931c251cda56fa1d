// Package shard maps the file namespace onto controller shards with a
// consistent-hash ring. Each shard contributes many virtual nodes (points)
// on a 64-bit ring; a file is owned by the shard whose point is the first
// at or clockwise of the file's hashed key. The mapping is a pure function
// of the membership set, so independent processes that agree on the member
// IDs agree on every file's owner without exchanging state, and a
// membership change moves only the keys that fall into the arcs gained or
// lost by the joining/leaving shard (≈ 1/N of the namespace).
package shard

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-shard point count used when a Ring is
// built with vnodes <= 0. More points smooth the arc distribution: at 256
// points per shard the max/min file-load ratio stays within ~15% for the
// shard counts Sprout targets (2–16).
const DefaultVirtualNodes = 256

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash   uint64
	member int // index into ids
}

// Ring is a consistent-hash ring over shard IDs. It is safe for concurrent
// use: lookups take a read lock, membership changes a write lock.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	ids     []string // member IDs, sorted
	points  []point  // sorted by hash
	version uint64   // bumped on every membership change
}

// New builds an empty ring with the given number of virtual nodes per
// member (DefaultVirtualNodes if vnodes <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes}
}

// Add inserts a member. Adding an existing ID is an error.
func (r *Ring) Add(id string) error {
	if id == "" {
		return fmt.Errorf("shard: empty member id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.ids {
		if have == id {
			return fmt.Errorf("shard: member %q already on the ring", id)
		}
	}
	r.ids = append(r.ids, id)
	sort.Strings(r.ids)
	r.rebuildLocked()
	r.version++
	return nil
}

// Remove deletes a member. Removing an unknown ID is an error.
func (r *Ring) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, have := range r.ids {
		if have == id {
			r.ids = append(r.ids[:i], r.ids[i+1:]...)
			r.rebuildLocked()
			r.version++
			return nil
		}
	}
	return fmt.Errorf("shard: member %q not on the ring", id)
}

// rebuildLocked recomputes the sorted point list from r.ids. Point hashes
// depend only on (member ID, vnode index), so a member's points land on
// identical positions in every process that knows its ID.
func (r *Ring) rebuildLocked() {
	r.points = r.points[:0]
	for m, id := range r.ids {
		base := fnv64a(id)
		for v := 0; v < r.vnodes; v++ {
			h := splitmix64(base + uint64(v)*0x9E3779B97F4A7C15)
			r.points = append(r.points, point{hash: h, member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Equal hashes are vanishingly rare; break the tie by ID so every
		// process orders the points identically.
		return r.ids[a.member] < r.ids[b.member]
	})
}

// Members returns the member IDs in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// Version returns the membership version: it increments on every Add or
// Remove, letting peers detect that their cached view of the ring is stale.
func (r *Ring) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Owner returns the shard that owns fileID, or false on an empty ring.
func (r *Ring) Owner(fileID int) (string, bool) {
	return r.OwnerKey(KeyForFile(fileID))
}

// OwnerKey returns the shard owning an arbitrary pre-hashed key.
func (r *Ring) OwnerKey(key uint64) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0 // wrap: the first point clockwise of the top of the ring
	}
	return r.ids[r.points[i].member], true
}

// KeyForFile hashes a file ID onto the ring. Exposed so callers can
// precompute keys for hot lookups.
func KeyForFile(fileID int) uint64 {
	return splitmix64(uint64(fileID) + 0x9E3779B97F4A7C15)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// high-quality 64-bit mix with full avalanche, so consecutive file IDs
// scatter uniformly around the ring.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64a hashes a member ID (FNV-1a), seeding its virtual-node sequence.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
