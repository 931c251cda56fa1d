// Package objstore is an in-process emulation of the Ceph object-store
// deployment the paper prototypes on: OSDs with configurable service-time
// behaviour, erasure-coded pools with CRUSH-like pseudo-random placement
// over placement groups, a primary-OSD write path that encodes objects into
// chunks, a read path that collects any k chunks, and an optional LRU
// write-back cache tier (the paper's baseline). A set of "equivalent code"
// pools, (n, k-d) for d = 0..k, implements the functional-caching evaluation
// methodology of Section V-C.
//
// # Chunk ownership
//
// A chunk payload is immutable from the moment it is handed over, and every
// layer passes the slice instead of copying it. OSD.PutChunk — and
// Pool.StageChunk and Pool.PlaceChunk above it — take ownership of data: the
// slice itself becomes the stored chunk, so the caller must never write to
// it or recycle its memory afterwards (the transport server hands over the
// frame buffer it read the chunk into; Pool.PutV and repair hand over
// freshly coded chunks). OSD.GetChunk — and Pool.GetChunk and GetChunkV —
// return the stored slice by reference: shared read-only memory that readers
// may keep for as long as they like (deleting or replacing a chunk only
// drops the store's own reference) and must never write to or recycle. The
// same rule continues upwards through the functional cache, so a chunk is
// copied only where it changes owner or shape: erasure.Split returns views
// of the caller's buffer, Pool.PutV and a whole-file write-through clone the
// caller's bytes once, DecodeInto copies on the way out, and the kernel's
// socket copies lie in between. Across the network the reader's copy is its own
// memory: the transport client receives a fetched chunk into the buffer the
// controller's read brought for it (core.FetchRef.Buf), which the read reuses
// once it has decoded. No stored chunk is ever recycled.
package objstore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/erasure"
	"sprout/internal/queue"
)

// Common errors.
var (
	ErrObjectNotFound = errors.New("objstore: object not found")
	ErrPoolNotFound   = errors.New("objstore: pool not found")
	ErrChunkMissing   = errors.New("objstore: chunk missing")
	ErrNotEnoughOSDs  = errors.New("objstore: not enough OSDs for pool")
	ErrBadPoolParams  = errors.New("objstore: invalid pool parameters")
	ErrOSDDown        = errors.New("objstore: osd down")
	ErrNoRepairTarget = errors.New("objstore: no live OSD available for repair placement")
	ErrNoStagedPut    = errors.New("objstore: no staged put for object version")
	ErrStagedStripe   = errors.New("objstore: staged stripe incomplete or inconsistent")
)

// OSD is one object storage daemon. Chunk reads and writes take a simulated
// service time drawn from the configured distribution, scaled by the chunk
// size, so queueing behaviour resembles the paper's testbed.
//
// Service is FIFO on the OSD's own timeline, the paper's M/G/1 queue: chunk
// operations queue in arrival order, and the one at the head starts at
// max(its arrival, busyUntil), the end of the service before it, and ends
// its service time later, which becomes the new busyUntil. One timer
// completes the head at the end of its slot, so a timer that wakes late
// delays only its own response, never the requests queued behind it, and the
// OSD is never faster than configured. No lock is held across a service:
// placing an operation on the timeline, or taking it off, is one short
// critical section. A service cancelled mid-slot ends the timeline at the
// moment it gives up, and a cancelled queued operation consumes no service.
//
// An OSD has a lifecycle: it serves while Up or Recovering and fast-fails
// every chunk operation with ErrOSDDown while Down (the node is
// unreachable, so no service time is consumed). Fail and Recover drive the
// transitions; lost chunks decide whether Recover lands in Recovering, and
// the error counter is telemetry. Whether the node may be read from is the
// controller's membership, set by whoever watches State.
type OSD struct {
	ID int

	// mu guards the chunk map and the timeline — the queue of chunk
	// operations from head (in service) to tail, busyUntil, and the rng
	// service times are drawn from — and is never held across a wait, so
	// metadata operations (HasChunk, DeleteChunk, NumChunks — used by the
	// repair plane's degradation scans) never wait behind a service.
	mu         sync.Mutex
	chunks     map[string][]byte // key: object/pool/chunk identifier
	head, tail *chunkOp
	busyUntil  time.Time
	rng        *rand.Rand
	// wake completes the head at the end of its slot.
	wake *time.Timer
	// waits recycles the waiters of blocking GetChunk and PutChunk calls.
	waits sync.Pool

	service queue.Dist // service time for a reference-sized chunk (seconds)
	refSize int64      // reference chunk size in bytes for scaling

	state      atomic.Int32 // NodeState
	errors     atomic.Int64
	lostChunks atomic.Int64

	served atomic.Int64
	busyNS atomic.Int64
}

// NewOSD creates an OSD with the given per-chunk service-time distribution
// calibrated for refSize-byte chunks.
func NewOSD(id int, service queue.Dist, refSize int64, seed int64) *OSD {
	o := &OSD{
		ID:      id,
		chunks:  make(map[string][]byte),
		service: service,
		refSize: refSize,
		rng:     rand.New(rand.NewSource(seed)),
	}
	o.waits.New = func() any {
		w := &opWait{ch: make(chan struct{}, 1)}
		w.op.done = w
		return w
	}
	return o
}

// sampleService draws one service time for a size-byte chunk. The caller
// holds o.mu.
func (o *OSD) sampleService(size int64) time.Duration {
	s := o.service.Sample(o.rng)
	if o.refSize > 0 && size > 0 {
		s *= float64(size) / float64(o.refSize)
	}
	return time.Duration(s * float64(time.Second))
}

// PutChunk stores a chunk once its service ends on the OSD's timeline. It
// takes ownership of data (see the package's chunk-ownership rule): the
// slice is stored as is, not copied.
func (o *OSD) PutChunk(ctx context.Context, key string, data []byte) error {
	w := o.waits.Get().(*opWait)
	w.op.name, w.op.data, w.op.put = key, data, true
	_, err := o.wait(ctx, w)
	return err
}

// GetChunk retrieves a chunk once its service ends on the OSD's timeline.
// The returned slice is the stored chunk itself — shared, read-only memory
// (see the package's chunk-ownership rule).
func (o *OSD) GetChunk(ctx context.Context, key string) ([]byte, error) {
	w := o.waits.Get().(*opWait)
	w.op.key = append(w.op.key[:0], key...)
	return o.wait(ctx, w)
}

// opWait is the op of a blocking GetChunk or PutChunk and the channel its
// completion is signalled on.
type opWait struct {
	op chunkOp
	ch chan struct{}
}

func (w *opWait) opDone() { w.ch <- struct{}{} }

// wait places w's op on the timeline, waits for its outcome and recycles w.
// A ctx that ends first takes the op off the timeline, unless its slot has
// already ended.
func (o *OSD) wait(ctx context.Context, w *opWait) ([]byte, error) {
	o.start(&w.op)
	select {
	case <-w.ch:
	case <-ctx.Done():
		if o.cancel(&w.op) {
			w.op.err = o.observe(ctx.Err())
		} else {
			<-w.ch
		}
	}
	data, err := w.op.data, w.op.err
	if err != nil {
		data = nil
	}
	w.op = chunkOp{key: w.op.key[:0], done: w}
	o.waits.Put(w)
	return data, err
}

// DeleteChunk removes a chunk without service delay (metadata operation).
// Deleting an absent chunk is a no-op; a Down OSD rejects the call.
func (o *OSD) DeleteChunk(key string) error {
	if o.State() == StateDown {
		return fmt.Errorf("%w: osd %d", ErrOSDDown, o.ID)
	}
	o.mu.Lock()
	delete(o.chunks, key)
	o.mu.Unlock()
	return nil
}

// Chunks returns a snapshot of what the OSD stores: every chunk key with
// the stored slice itself (shared and read-only, like GetChunk's result),
// without service delay. Audits use it to check stored bytes in place.
func (o *OSD) Chunks() map[string][]byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string][]byte, len(o.chunks))
	for key, data := range o.chunks {
		out[key] = data
	}
	return out
}

// NumChunks returns how many chunks the OSD currently stores.
func (o *OSD) NumChunks() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.chunks)
}

// Service exposes the OSD's service-time distribution (used to export the
// emulated topology as a cluster description for the controller).
func (o *OSD) Service() queue.Dist { return o.service }

// HasChunk reports whether the OSD stores the chunk, without service delay
// and without waiting behind in-flight chunk operations.
func (o *OSD) HasChunk(key string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.chunks[key]
	return ok
}

// Stats returns the number of chunk operations served and the cumulative
// busy time.
func (o *OSD) Stats() (served int64, busy time.Duration) {
	return o.served.Load(), time.Duration(o.busyNS.Load())
}

// Pool is an erasure-coded pool: objects written to it are split into k data
// chunks, encoded to n chunks and spread over the pool's OSDs using a
// CRUSH-like placement over placement groups.
type Pool struct {
	Name            string
	N, K            int
	PlacementGroups int

	osds []*OSD
	code *erasure.Code
	// pgOSDs is the CRUSH-like placement, indexed by placement group: a
	// group's OSD list is built once, when BeginPut first opens a put in it
	// (under mu), because recomputing the seeded permutation per request
	// would dominate the serving path and building all of them up front
	// costs a pool milliseconds it mostly does not need. Every other reader
	// reaches a group through an object that was begun, so it finds the
	// entry built and reads it without a lock; a built entry never changes.
	pgOSDs [][]*OSD

	mu      sync.RWMutex
	objects map[string]objectMeta
	// overrides remaps individual chunks (keyed by chunkKey) away from their
	// CRUSH position: the repair plane and the staged write path re-place
	// chunks whose CRUSH home is Down onto live OSDs and record the new home
	// here.
	overrides map[string]*OSD
	// staged holds in-flight two-phase puts: chunks written under a new
	// version that no committed object metadata points at yet, so readers
	// cannot observe them until CommitObject flips the version.
	staged map[stagedKey]*stagedPut
	// prev defers garbage collection of superseded stripes by one commit:
	// when version v+1 commits, version v's chunks are parked here and only
	// deleted when v+2 commits (or the tests' ReapPrevious runs). Readers
	// that pinned v just before the flip can therefore still decode it —
	// without the grace stripe, a reader racing back-to-back overwrites
	// could starve.
	prev map[string]prevStripe
	// pins counts readers currently decoding a stripe version; a pinned
	// stripe is never garbage collected — reaping moves it to zombies and
	// the last unpin deletes its chunks. This is what makes Get wait-free
	// under continuous overwrites: the version a reader pins stays readable
	// for the whole read, no matter how many commits land meanwhile.
	// Pinning takes the exclusive pool lock for a map increment; measured
	// against the pre-pin RLock path this is within run-to-run noise even
	// at the transport bench's 64-client 4 KiB chunk-read saturation point
	// (~135k ops/s), so the simple map wins over sharded counters.
	pins    map[stagedKey]int
	zombies map[stagedKey]prevStripe
	// verSeq allocates unique, monotonically increasing stripe versions
	// across the pool.
	verSeq atomic.Uint64
	// commitHooks are called after every committed put with the object name:
	// the cluster registers LRU cache-tier invalidation, and co-located
	// Sprout controllers register functional-cache invalidation, so an
	// overwrite through any path never leaves stale cached bytes behind.
	commitHooks []func(object string)
	// reads recycles the chunk reads of ReadChunk and GetChunkV.
	reads sync.Pool
}

type objectMeta struct {
	size    int
	pg      int
	version uint64
}

// NewPool creates an erasure-coded pool over the given OSDs. The number of
// placement groups follows the paper's eq. (17): OSDs*100/m rounded to the
// next power of two, unless overridden with pgs > 0.
func NewPool(name string, n, k int, osds []*OSD, pgs int) (*Pool, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("%w: (%d,%d)", ErrBadPoolParams, n, k)
	}
	if len(osds) < n {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNotEnoughOSDs, n, len(osds))
	}
	code, err := erasure.New(n, k)
	if err != nil {
		return nil, err
	}
	if pgs <= 0 {
		m := n - k
		if m == 0 {
			m = 1
		}
		pgs = nextPowerOfTwo(len(osds) * 100 / m)
	}
	p := &Pool{
		Name:            name,
		N:               n,
		K:               k,
		PlacementGroups: pgs,
		osds:            osds,
		code:            code,
		pgOSDs:          make([][]*OSD, pgs),
		objects:         make(map[string]objectMeta),
		overrides:       make(map[string]*OSD),
		staged:          make(map[stagedKey]*stagedPut),
		prev:            make(map[string]prevStripe),
		pins:            make(map[stagedKey]int),
		zombies:         make(map[stagedKey]prevStripe),
	}
	p.reads.New = func() any {
		r := &chunkRead{pool: p, ch: make(chan struct{}, 1)}
		r.op.done = r
		return r
	}
	return p, nil
}

// place builds placement group pg's OSD list if it is not built yet: the
// first N OSDs of a permutation seeded by the group and the OSD count. The
// caller holds p.mu.
func (p *Pool) place(pg int) {
	if p.pgOSDs[pg] != nil {
		return
	}
	perm := rand.New(rand.NewSource(int64(pg)*2654435761 + int64(len(p.osds)))).Perm(len(p.osds))
	mapped := make([]*OSD, p.N)
	for i := range mapped {
		mapped[i] = p.osds[perm[i]]
	}
	p.pgOSDs[pg] = mapped
}

func nextPowerOfTwo(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Code exposes the pool's erasure coder (used by the functional cache to
// generate coded cache chunks consistent with the stored chunks).
func (p *Pool) Code() *erasure.Code { return p.code }

// OnCommit registers a hook called with the object name after every
// committed put (initial ingest and overwrites alike). Cache layers register
// invalidation here so overwritten content can never be served stale. Hooks
// run outside the pool lock, after the version flip is visible.
func (p *Pool) OnCommit(hook func(object string)) {
	p.mu.Lock()
	p.commitHooks = append(p.commitHooks, hook)
	p.mu.Unlock()
}

// placementGroup hashes an object name onto a placement group.
func (p *Pool) placementGroup(object string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(object))
	_, _ = h.Write([]byte(p.Name))
	return int(h.Sum32()) % p.PlacementGroups
}

// chunkKey names one coded chunk of one stripe version of an object. The
// version is part of the key, so an overwrite staged under a new version
// never collides with the committed stripe and a reader holding a version
// can never assemble chunks from two different puts.
func (p *Pool) chunkKey(object string, version uint64, chunk int) string {
	var b [64]byte
	return string(p.appendChunkKey(b[:0], object, version, chunk))
}

// appendChunkKey appends the chunk's key to dst, so that a caller with a
// buffer on its stack names a chunk without allocating.
func (p *Pool) appendChunkKey(dst []byte, object string, version uint64, chunk int) []byte {
	dst = append(append(append(dst, p.Name...), '/'), object...)
	dst = strconv.AppendUint(append(dst, "/v"...), version, 10)
	return strconv.AppendInt(append(dst, '/'), int64(chunk), 10)
}

// osdForChunk resolves the OSD currently hosting a chunk of the given stripe
// version: an override (recorded by repair or by a staged write that dodged
// a Down OSD) if one exists, the CRUSH position otherwise.
func (p *Pool) osdForChunk(pg int, object string, version uint64, chunk int) *OSD {
	var b [64]byte
	return p.osdForKey(pg, p.appendChunkKey(b[:0], object, version, chunk), chunk)
}

// osdForKey is osdForChunk for the chunk whose key is key.
func (p *Pool) osdForKey(pg int, key []byte, chunk int) *OSD {
	p.mu.RLock()
	osd, ok := p.overrides[string(key)]
	p.mu.RUnlock()
	if ok {
		return osd
	}
	return p.pgOSDs[pg][chunk]
}

// ChunkOSD reports the ID of the OSD currently hosting one coded chunk of
// the object's committed stripe — the same placement (repair and staging
// overrides included) the read path uses. The transport's chaos harness
// uses it to aim per-OSD faults at the requests that actually land there.
func (p *Pool) ChunkOSD(object string, chunk int) (int, error) {
	meta, ok := p.meta(object)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrObjectNotFound, object)
	}
	if chunk < 0 || chunk >= p.N {
		return 0, fmt.Errorf("%w: %s chunk %d", ErrChunkMissing, object, chunk)
	}
	return p.osdForChunk(meta.pg, object, meta.version, chunk).ID, nil
}

// meta returns the committed metadata of an object.
func (p *Pool) meta(object string) (objectMeta, bool) {
	p.mu.RLock()
	meta, ok := p.objects[object]
	p.mu.RUnlock()
	return meta, ok
}

// Get reads an object by collecting k chunks of its committed stripe version
// from the hosting OSDs (all n are contacted; the k fastest responses win,
// mirroring Ceph's read path for erasure-coded pools, and the rest are taken
// off their OSDs' timelines) and decoding. The version is pinned when the
// metadata is read: a concurrent overwrite can never contribute chunks to
// this read's stripe, and garbage collection defers deletion of the pinned
// stripe until the read finishes, so reads never starve under continuous
// overwrites. The retry loop remains for failure cases (a chunk lost to a
// Down OSD may exist again under the next committed version).
func (p *Pool) Get(ctx context.Context, object string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < versionRetries; attempt++ {
		meta, ok := p.pinMeta(object)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrObjectNotFound, object)
		}
		chunks, err := p.gather(ctx, object, meta, nil)
		p.unpin(object, meta.version)
		if err == nil {
			return p.code.Decode(chunks, meta.size)
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		if cur, ok := p.meta(object); !ok || cur.version == meta.version {
			return nil, err
		}
		// The stripe was replaced while we read it: retry the new version.
	}
	return nil, lastErr
}

// versionRetries bounds how often a read chases version flips before giving
// up; each retry only happens when an overwrite actually committed mid-read,
// and the one-stripe GC grace means a retry only becomes necessary when two
// commits land inside one read window.
const versionRetries = 6

// GetChunks reads the listed coded chunks of the object's committed stripe,
// all pinned to one version, and returns the first k to arrive; the rest are
// taken off their OSDs' timelines.
func (p *Pool) GetChunks(ctx context.Context, object string, chunks []int) ([]erasure.Chunk, error) {
	meta, ok := p.pinMeta(object)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrObjectNotFound, object)
	}
	defer p.unpin(object, meta.version)
	return p.gather(ctx, object, meta, chunks)
}

// stripeRead is one chunk op of a gather, which completes on its channel.
type stripeRead struct {
	op   chunkOp
	osd  *OSD
	idx  int
	done chan *stripeRead
}

func (s *stripeRead) opDone() { s.done <- s }

// gather reads the listed chunks (nil: all n) of one pinned stripe version
// and returns the first k to arrive.
func (p *Pool) gather(ctx context.Context, object string, meta objectMeta, chunks []int) ([]erasure.Chunk, error) {
	if chunks == nil {
		chunks = make([]int, p.N)
		for i := range chunks {
			chunks[i] = i
		}
	}
	done := make(chan *stripeRead, len(chunks))
	reads := make([]stripeRead, len(chunks))
	for i, idx := range chunks {
		r := &reads[i]
		r.idx, r.done, r.op.done = idx, done, r
		r.op.key = p.appendChunkKey(nil, object, meta.version, idx)
		r.osd = p.osdForKey(meta.pg, r.op.key, idx)
		r.osd.start(&r.op)
	}
	defer func() {
		for i := range reads {
			reads[i].osd.cancel(&reads[i].op)
		}
	}()
	got := make([]erasure.Chunk, 0, p.K)
	var lastErr error
	for range reads {
		select {
		case r := <-done:
			if r.op.err != nil {
				lastErr = r.op.err
				continue
			}
			if got = append(got, erasure.Chunk{Index: r.idx, Data: r.op.data}); len(got) == p.K {
				return got, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: object %s", ErrChunkMissing, object)
	}
	return nil, fmt.Errorf("gathered %d of %d chunks: %w", len(got), p.K, lastErr)
}

// GetChunk reads one specific coded chunk of an object's committed stripe
// directly from its hosting OSD (used by Sprout's functional-cache read
// path). The chunk is returned by reference and is read-only.
func (p *Pool) GetChunk(ctx context.Context, object string, chunk int) ([]byte, error) {
	data, _, _, err := p.GetChunkV(ctx, object, chunk)
	return data, err
}

// GetChunkV is ReadChunk waited for, with the stripe's version and object
// size, so callers assembling a stripe from several GetChunkV calls (the
// controller's read plane) can detect a concurrent overwrite instead of
// decoding a mixed-version stripe. It returns when ctx ends; the read, as
// over the wire, still ends at its slot or at ctx's deadline. The chunk is
// returned by reference and is read-only.
func (p *Pool) GetChunkV(ctx context.Context, object string, chunk int) ([]byte, uint64, int, error) {
	r := p.reads.Get().(*chunkRead)
	r.read(ctx, object, chunk)
	select {
	case <-r.ch:
	case <-ctx.Done():
		return nil, 0, 0, ctx.Err() // r completes later, and is left to the GC
	}
	data, stripe, err := r.op.data, r.stripe, r.err
	if err != nil {
		data, stripe = nil, cluster.StripeInfo{}
	}
	r.recycle()
	return data, stripe.Version, stripe.Size, err
}

// ChunkSink receives the outcome of one ReadChunk: the chunk, by reference
// and read-only, with the stripe it belongs to, or the error. A core.FetchSink
// is one.
type ChunkSink interface {
	FetchDone(data []byte, stripe cluster.StripeInfo, err error)
}

// ReadChunk reads one coded chunk of the object's committed stripe without
// waiting for it: sink receives the outcome exactly once, never under a lock
// of the pool or an OSD, and inline when the read fails before it is queued
// or its slot on the OSD's timeline has ended by then. The read pins its
// stripe version until completion, where a read that lost its stripe to a
// concurrent commit retries against the new version. Only ctx's deadline is
// used: a read not served by then completes with context.DeadlineExceeded.
func (p *Pool) ReadChunk(ctx context.Context, object string, chunk int, sink ChunkSink) {
	r := p.reads.Get().(*chunkRead)
	r.sink = sink
	r.read(ctx, object, chunk)
}

// chunkRead is one chunk read in flight: the stripe it pinned and the OSD op
// reading its chunk. It completes into sink and is recycled, or, for a
// GetChunkV (no sink), leaves err set and signals ch.
type chunkRead struct {
	op     chunkOp
	pool   *Pool
	object string
	chunk  int
	stripe cluster.StripeInfo
	flips  int // version flips chased so far
	sink   ChunkSink
	ch     chan struct{}
	err    error
}

func (r *chunkRead) read(ctx context.Context, object string, chunk int) {
	r.object, r.chunk, r.flips = object, chunk, 0
	r.op.deadline, _ = ctx.Deadline()
	r.attempt()
}

// attempt pins the object's committed stripe and places the chunk's read on
// the OSD hosting it.
func (r *chunkRead) attempt() {
	p := r.pool
	meta, ok := p.pinMeta(r.object)
	switch {
	case !ok:
		r.finish(fmt.Errorf("%w: %s", ErrObjectNotFound, r.object))
	case r.chunk < 0 || r.chunk >= p.N:
		p.unpin(r.object, meta.version)
		r.finish(fmt.Errorf("%w: chunk %d", ErrChunkMissing, r.chunk))
	default:
		r.stripe = cluster.StripeInfo{Version: meta.version, Size: meta.size}
		r.op.key = p.appendChunkKey(r.op.key[:0], r.object, meta.version, r.chunk)
		p.osdForKey(meta.pg, r.op.key, r.chunk).start(&r.op)
	}
}

// opDone unpins the stripe the op read and, when the op failed because a
// commit replaced that stripe meanwhile, reads the chunk again from the new
// one.
func (r *chunkRead) opDone() {
	p, err := r.pool, r.op.err
	p.unpin(r.object, r.stripe.Version)
	if err != nil && err != context.DeadlineExceeded && r.flips < versionRetries-1 {
		if cur, ok := p.meta(r.object); ok && cur.version != r.stripe.Version {
			r.flips++
			r.attempt()
			return
		}
	}
	r.finish(err)
}

func (r *chunkRead) finish(err error) {
	if r.sink == nil {
		r.err = err
		r.ch <- struct{}{}
		return
	}
	sink, data, stripe := r.sink, r.op.data, r.stripe
	if err != nil {
		data, stripe = nil, cluster.StripeInfo{}
	}
	r.recycle()
	sink.FetchDone(data, stripe, err)
}

// recycle drops the read's references and returns it to its pool.
func (r *chunkRead) recycle() {
	r.op.data, r.sink, r.err, r.object = nil, nil, nil, ""
	r.pool.reads.Put(r)
}

// Objects returns the names of all objects in the pool, sorted.
func (p *Pool) Objects() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := make([]string, 0, len(p.objects))
	for name := range p.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// OSDs returns the pool's OSD set.
func (p *Pool) OSDs() []*OSD { return p.osds }

// CoderStats returns a snapshot of the pool's erasure-coding data-plane
// counters (operations, payload bytes, decode-plan cache hits/misses,
// striped vs serial operations).
func (p *Pool) CoderStats() erasure.CoderStats { return p.code.Stats() }
