// Package router is the thin read/write front of the sharded metadata
// plane. It implements the controller's serving facade (Read / ReadInto /
// Write) over N shard controllers: a consistent-hash ring (internal/shard)
// maps each file to its owning shard, requests are forwarded there — in
// process when the shard's controller lives in this process, over a pooled
// transport client when it is remote — and a write committed through the
// owning shard fans a versioned invalidation out to every peer shard, so
// write-through caches and pending fills left over from earlier ownership
// never serve a superseded stripe. The protocol is at-least-once and
// idempotent: deliveries ride the storage plane's stripe versions, and a
// late or duplicate invalidation is dropped by the receiving controller's
// version comparison.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/core"
	"sprout/internal/metrics"
	"sprout/internal/shard"
	"sprout/internal/transport"
)

// Shard describes one member of the metadata plane. Exactly one of Ctrl
// and Addr decides the serving path: a non-nil Ctrl is served in process;
// otherwise Addr is dialed with a pooled transport client. Addr may also
// accompany a Ctrl purely as the address advertised to peers in membership
// exchanges.
type Shard struct {
	ID   string
	Ctrl *core.Controller
	Addr string
}

// Options tunes the router.
type Options struct {
	// Client configures the pooled connections to remote shards.
	Client transport.ClientConfig
}

// handle is one registered shard plus its per-shard routing counters.
type handle struct {
	id     string
	ctrl   *core.Controller
	addr   string
	client *transport.Client // non-nil iff the shard is served remotely

	reads  atomic.Int64
	writes atomic.Int64
}

// Router routes reads and writes to the owning shard and fans each
// committed write's invalidation out to the other shards.
type Router struct {
	opts Options
	ring *shard.Ring

	mu     sync.RWMutex
	shards map[string]*handle

	invSent    atomic.Int64 // deliveries started
	invApplied atomic.Int64 // peer applied the invalidation
	invStale   atomic.Int64 // peer dropped it as late/duplicate
	invErrors  atomic.Int64 // deliveries that failed after retries
	fanouts    atomic.Int64 // writes that fanned out
	fanoutHist metrics.Histogram
}

// New builds a router with no shards; add them with AddShard.
func New(opts Options) *Router {
	return &Router{
		opts:   opts,
		ring:   shard.New(shard.DefaultVirtualNodes),
		shards: make(map[string]*handle),
	}
}

// AddShard registers a shard and gives it its arcs on the ring. Files whose
// ownership moves to the new shard start cold there; their old owners'
// caches are corrected by the invalidation fan-out on the next write, and
// by the read plane's stripe-version checks before that.
func (r *Router) AddShard(s Shard) error {
	if s.Ctrl == nil && s.Addr == "" {
		return fmt.Errorf("router: shard %q has neither a controller nor an address", s.ID)
	}
	h := &handle{id: s.ID, ctrl: s.Ctrl, addr: s.Addr}
	if s.Ctrl == nil {
		cli, err := transport.DialConfig(s.Addr, r.opts.Client)
		if err != nil {
			return fmt.Errorf("router: dialing shard %q at %s: %w", s.ID, s.Addr, err)
		}
		h.client = cli
	}
	r.mu.Lock()
	if _, dup := r.shards[s.ID]; dup {
		r.mu.Unlock()
		if h.client != nil {
			_ = h.client.Close()
		}
		return fmt.Errorf("router: shard %q already registered", s.ID)
	}
	if err := r.ring.Add(s.ID); err != nil {
		r.mu.Unlock()
		if h.client != nil {
			_ = h.client.Close()
		}
		return err
	}
	r.shards[s.ID] = h
	r.mu.Unlock()
	return nil
}

// RemoveShard takes a shard off the ring; its files remap to the surviving
// shards (which serve them cold from storage). The shard's connection pool
// is drained. The controller itself belongs to the caller and stays open.
func (r *Router) RemoveShard(id string) error {
	r.mu.Lock()
	h, ok := r.shards[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("router: shard %q not registered", id)
	}
	delete(r.shards, id)
	err := r.ring.Remove(id)
	r.mu.Unlock()
	if h.client != nil {
		_ = h.client.Close()
	}
	return err
}

// owner resolves the shard handle owning fileID.
func (r *Router) owner(fileID int) (*handle, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ring.Owner(fileID)
	if !ok {
		return nil, errors.New("router: no shards registered")
	}
	h, ok := r.shards[id]
	if !ok {
		return nil, fmt.Errorf("router: ring owner %q has no handle", id)
	}
	return h, nil
}

// OwnerOf returns the ID of the shard owning fileID ("" on an empty ring).
func (r *Router) OwnerOf(fileID int) string {
	id, _ := r.ring.Owner(fileID)
	return id
}

// Read serves a file through its owning shard. The fetcher is used by
// in-process shards; a remote shard fetches with its own.
func (r *Router) Read(ctx context.Context, fileID int, fetcher core.ChunkFetcher) ([]byte, error) {
	return r.ReadInto(ctx, fileID, fetcher, nil)
}

// ReadInto is Read with a caller-supplied destination buffer (grown as
// needed), mirroring the controller's zero-alloc serving call.
func (r *Router) ReadInto(ctx context.Context, fileID int, fetcher core.ChunkFetcher, dst []byte) ([]byte, error) {
	h, err := r.owner(fileID)
	if err != nil {
		return nil, err
	}
	h.reads.Add(1)
	if h.ctrl != nil {
		return h.ctrl.ReadInto(ctx, fileID, fetcher, dst)
	}
	data, err := h.client.CtrlRead(ctx, fileID)
	if err != nil {
		return nil, err
	}
	if cap(dst) >= len(data) {
		dst = dst[:len(data)]
		copy(dst, data)
		return dst, nil
	}
	return data, nil
}

// Write commits a file through its owning shard, then synchronously fans
// the committed stripe version out to every peer shard as an invalidation.
// The write itself is acknowledged by the owner before fan-out starts, so a
// fan-out failure cannot undo it: failed deliveries are counted and the
// stripe-version checks on the read plane contain the staleness until the
// next successful invalidation or read-repair.
func (r *Router) Write(ctx context.Context, fileID int, data []byte, writer core.ObjectWriter) error {
	h, err := r.owner(fileID)
	if err != nil {
		return err
	}
	h.writes.Add(1)
	var version uint64
	if h.ctrl != nil {
		version, err = h.ctrl.WriteVersion(ctx, fileID, data, writer)
	} else {
		version, err = h.client.CtrlWrite(ctx, fileID, data)
	}
	if err != nil {
		return err
	}
	if version == 0 {
		// An unversioned backend gives the protocol nothing to compare;
		// peers rely on the co-located invalidation hooks instead.
		return nil
	}
	r.fanoutInvalidate(h.id, fileID, version, len(data))
	return nil
}

// fanoutInvalidate delivers fileID@version to every shard except the owner,
// all at once, and waits for the acknowledgements.
func (r *Router) fanoutInvalidate(ownerID string, fileID int, version uint64, size int) {
	r.mu.RLock()
	peers := make([]*handle, 0, len(r.shards))
	for id, h := range r.shards {
		if id != ownerID {
			peers = append(peers, h)
		}
	}
	r.mu.RUnlock()
	if len(peers) == 0 {
		return
	}
	start := time.Now()
	r.fanouts.Add(1)
	var wg sync.WaitGroup
	for _, h := range peers {
		r.invSent.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.deliver(h, fileID, version, size)
		}()
	}
	wg.Wait()
	r.fanoutHist.Observe(time.Since(start))
}

// deliver pushes one invalidation to one shard and counts its outcome. The
// transport client already retries broken connections and overload under
// its retry budget, so delivery is at-least-once as long as the peer is
// reachable.
func (r *Router) deliver(h *handle, fileID int, version uint64, size int) {
	var applied bool
	var err error
	if h.ctrl != nil {
		applied, err = h.ctrl.InvalidateVersion(fileID, version, size)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		applied, err = h.client.Invalidate(ctx, fileID, version, size)
		cancel()
	}
	switch {
	case err != nil:
		r.invErrors.Add(1)
	case applied:
		r.invApplied.Add(1)
	default:
		r.invStale.Add(1)
	}
}

// Membership returns the ring version and the members as flat
// "id, address" pairs (empty address for purely in-process shards) — the
// payload of the transport's shard-membership exchange.
func (r *Router) Membership() (uint64, []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	members := r.ring.Members()
	pairs := make([]string, 0, 2*len(members))
	for _, id := range members {
		addr := ""
		if h, ok := r.shards[id]; ok {
			addr = h.addr
		}
		pairs = append(pairs, id, addr)
	}
	return r.ring.Version(), pairs
}

// SyncMembership dials a peer endpoint, fetches its membership view, and
// registers every shard this router does not know yet as a remote shard.
// It returns the number of shards added.
func (r *Router) SyncMembership(ctx context.Context, addr string) (int, error) {
	cli, err := transport.DialConfig(addr, r.opts.Client)
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	_, pairs, err := cli.ShardMembership(ctx)
	if err != nil {
		return 0, err
	}
	if len(pairs)%2 != 0 {
		return 0, fmt.Errorf("router: malformed membership payload (%d entries)", len(pairs))
	}
	added := 0
	for i := 0; i < len(pairs); i += 2 {
		id, shardAddr := pairs[i], pairs[i+1]
		r.mu.RLock()
		_, known := r.shards[id]
		r.mu.RUnlock()
		if known || shardAddr == "" {
			continue
		}
		if err := r.AddShard(Shard{ID: id, Addr: shardAddr}); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// Close drains every remote shard's connection pool and leaves the ring
// empty. It is idempotent. Shard controllers belong to their creators and
// stay open.
func (r *Router) Close() error {
	r.mu.Lock()
	handles := make([]*handle, 0, len(r.shards))
	for id, h := range r.shards {
		handles = append(handles, h)
		delete(r.shards, id)
	}
	r.mu.Unlock()
	for _, h := range handles {
		if h.client != nil {
			_ = h.client.Close()
		}
	}
	return nil
}

// ShardStats is one shard's routing counters.
type ShardStats struct {
	ID     string
	Remote bool
	Reads  int64
	Writes int64
}

// Stats is the router's observability snapshot.
type Stats struct {
	// Shards lists per-shard routed-operation counters in ring order.
	Shards []ShardStats
	// RingVersion is the membership version (bumps on add/remove).
	RingVersion uint64
	// Fan-out protocol counters: deliveries started, deliveries the peer
	// applied, deliveries the peer dropped as late or duplicate (the
	// protocol's idempotence), and deliveries that failed.
	InvalidationsSent    int64
	InvalidationsApplied int64
	InvalidationsStale   int64
	InvalidationErrors   int64
	// Fanouts counts writes that triggered a fan-out; FanoutLatency is the
	// write-side latency of the full fan-out barrier.
	Fanouts       int64
	FanoutLatency metrics.LatencySnapshot
}

// Stats snapshots the router counters.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	members := r.ring.Members()
	per := make([]ShardStats, 0, len(members))
	for _, id := range members {
		if h, ok := r.shards[id]; ok {
			per = append(per, ShardStats{
				ID: id, Remote: h.client != nil,
				Reads: h.reads.Load(), Writes: h.writes.Load(),
			})
		}
	}
	version := r.ring.Version()
	r.mu.RUnlock()
	return Stats{
		Shards:               per,
		RingVersion:          version,
		InvalidationsSent:    r.invSent.Load(),
		InvalidationsApplied: r.invApplied.Load(),
		InvalidationsStale:   r.invStale.Load(),
		InvalidationErrors:   r.invErrors.Load(),
		Fanouts:              r.fanouts.Load(),
		FanoutLatency:        r.fanoutHist.Buckets().Snapshot(),
	}
}

// FanoutLatencyBuckets exposes the raw fan-out latency histogram for the
// metrics exporter.
func (r *Router) FanoutLatencyBuckets() metrics.HistogramBuckets {
	return r.fanoutHist.Buckets()
}

// PlanTimeBin replans every in-process shard over its slice of the
// namespace: each shard sees the true arrival rate for the files it owns
// and zero for the rest, so its optimizer run, epoch snapshot, fill pool,
// and adaptive loop work only its partition. Remote shards plan in their own
// process and are skipped here.
func (r *Router) PlanTimeBin(lambdas []float64) error {
	r.mu.RLock()
	handles := make([]*handle, 0, len(r.shards))
	for _, h := range r.shards {
		if h.ctrl != nil {
			handles = append(handles, h)
		}
	}
	r.mu.RUnlock()
	var errs []error
	for _, h := range handles {
		masked := r.MaskLambdas(h.id, lambdas)
		if _, err := h.ctrl.PlanTimeBin(masked); err != nil {
			errs = append(errs, fmt.Errorf("shard %q: %w", h.id, err))
		}
	}
	return errors.Join(errs...)
}

// MaskLambdas returns a copy of lambdas with every file not owned by
// shardID zeroed — the per-shard workload slice fed to that shard's
// optimizer.
func (r *Router) MaskLambdas(shardID string, lambdas []float64) []float64 {
	masked := make([]float64, len(lambdas))
	for f, l := range lambdas {
		if id, ok := r.ring.Owner(f); ok && id == shardID {
			masked[f] = l
		}
	}
	return masked
}

// PrefetchCache warms every in-process shard's planned allocation.
func (r *Router) PrefetchCache(ctx context.Context, fetcher core.ChunkFetcher) error {
	r.mu.RLock()
	handles := make([]*handle, 0, len(r.shards))
	for _, h := range r.shards {
		if h.ctrl != nil {
			handles = append(handles, h)
		}
	}
	r.mu.RUnlock()
	var errs []error
	for _, h := range handles {
		if err := h.ctrl.PrefetchCache(ctx, fetcher); err != nil {
			errs = append(errs, fmt.Errorf("shard %q: %w", h.id, err))
		}
	}
	return errors.Join(errs...)
}
