package objstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sprout/internal/cluster"
)

// NodeState is the lifecycle state of an OSD.
type NodeState int32

// OSD lifecycle states. An OSD serves chunk operations while Up or
// Recovering; while Down every operation fast-fails with ErrOSDDown.
const (
	StateUp NodeState = iota
	StateDown
	StateRecovering
)

func (s NodeState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// State returns the OSD's current lifecycle state.
func (o *OSD) State() NodeState { return NodeState(o.state.Load()) }

// Alive reports whether the OSD serves chunk operations (Up or Recovering).
func (o *OSD) Alive() bool { return o.State() != StateDown }

// Fail takes the OSD Down: subsequent chunk operations fast-fail with
// ErrOSDDown. With loseChunks the stored chunks are dropped as well,
// modelling permanent media loss rather than a transient outage.
func (o *OSD) Fail(loseChunks bool) {
	o.state.Store(int32(StateDown))
	if loseChunks {
		o.mu.Lock()
		lost := len(o.chunks)
		o.chunks = make(map[string][]byte)
		o.mu.Unlock()
		o.lostChunks.Add(int64(lost))
	}
}

// Recover brings a Down OSD back: Recovering if it lost chunks that the
// repair plane still needs to backfill, Up otherwise. Recovering OSDs serve
// traffic; MarkUp promotes them once repair declares the pool healthy.
func (o *OSD) Recover() {
	if o.State() != StateDown {
		return
	}
	if o.lostChunks.Load() > 0 {
		o.state.Store(int32(StateRecovering))
		return
	}
	o.state.Store(int32(StateUp))
}

// MarkUp promotes a Recovering OSD to Up (called by the repair plane once no
// degraded objects remain). It has no effect on a Down OSD — in particular
// the loss record survives, so a concurrent re-failure still rejoins as
// Recovering later.
func (o *OSD) MarkUp() {
	if o.state.CompareAndSwap(int32(StateRecovering), int32(StateUp)) {
		o.lostChunks.Store(0)
	}
}

// observe records the outcome of one chunk operation in the OSD's health
// counters and passes the error through. Context cancellation is the caller
// abandoning the fetch (hedging, fastest-k reads), not a node fault, so it
// does not count against the OSD.
func (o *OSD) observe(err error) error {
	if err != nil && !errors.Is(err, context.Canceled) {
		o.errors.Add(1)
	}
	return err
}

// OSDHealth is a snapshot of one OSD's lifecycle and health counters.
type OSDHealth struct {
	ID    int
	State NodeState
	// Served counts completed chunk operations; Busy is the cumulative
	// simulated service time behind them.
	Served int64
	Busy   time.Duration
	// Errors counts failed chunk operations (down rejections, missing
	// chunks, timeouts).
	Errors int64
	// Chunks is the number of chunks currently stored; LostChunks counts
	// chunks dropped by a Fail(loseChunks=true) that repair has not yet
	// acknowledged via MarkUp.
	Chunks     int
	LostChunks int64
}

// Health returns a snapshot of the OSD's lifecycle and health counters.
func (o *OSD) Health() OSDHealth {
	served, busy := o.Stats()
	return OSDHealth{
		ID:         o.ID,
		State:      o.State(),
		Served:     served,
		Busy:       busy,
		Errors:     o.errors.Load(),
		Chunks:     o.NumChunks(),
		LostChunks: o.lostChunks.Load(),
	}
}

// ChunkLocation describes where one coded chunk of an object lives and
// whether it is currently readable.
type ChunkLocation struct {
	Chunk int
	OSD   *OSD
	// Alive reports the hosting OSD serves requests (Up or Recovering);
	// Present reports the OSD actually stores the chunk payload. A chunk is
	// readable iff both hold.
	Alive   bool
	Present bool
}

// ChunkLocations returns the health-aware placement view of an object: one
// entry per coded chunk, resolved through repair overrides, annotated with
// the hosting OSD's liveness and whether the payload is present.
func (p *Pool) ChunkLocations(object string) ([]ChunkLocation, error) {
	p.mu.RLock()
	meta, ok := p.objects[object]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrObjectNotFound, object)
	}
	locs := make([]ChunkLocation, p.N)
	for i := 0; i < p.N; i++ {
		osd := p.osdForChunk(meta.pg, object, meta.version, i)
		locs[i] = ChunkLocation{
			Chunk:   i,
			OSD:     osd,
			Alive:   osd.Alive(),
			Present: osd.HasChunk(p.chunkKey(object, meta.version, i)),
		}
	}
	return locs, nil
}

// DegradedObject describes an object with unreadable chunks: the chunk
// indices lost and the number of chunks still readable.
type DegradedObject struct {
	Object    string
	Missing   []int
	Surviving int
}

// DegradedObjects scans the pool for objects whose chunks are unreadable
// (hosting OSD down, or payload lost) and reports them with their surviving
// chunk counts. The repair plane prioritises the fewest-surviving objects.
func (p *Pool) DegradedObjects() []DegradedObject {
	var out []DegradedObject
	for _, object := range p.Objects() {
		locs, err := p.ChunkLocations(object)
		if err != nil {
			continue
		}
		var missing []int
		surviving := 0
		for _, loc := range locs {
			if loc.Alive && loc.Present {
				surviving++
			} else {
				missing = append(missing, loc.Chunk)
			}
		}
		if len(missing) > 0 {
			out = append(out, DegradedObject{Object: object, Missing: missing, Surviving: surviving})
		}
	}
	return out
}

// PlaceChunk writes a reconstructed chunk back into the pool on a live OSD:
// the chunk's current home if it is alive, otherwise a live OSD that hosts
// no other chunk of the object (recorded as a repair override so reads and
// future repairs resolve the new location). It returns the OSD that
// received the chunk. The pool takes ownership of data: it is stored by
// reference and must not be written to again.
func (p *Pool) PlaceChunk(ctx context.Context, object string, chunk int, data []byte) (*OSD, error) {
	p.mu.RLock()
	meta, ok := p.objects[object]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrObjectNotFound, object)
	}
	if chunk < 0 || chunk >= p.N {
		return nil, fmt.Errorf("%w: chunk %d", ErrChunkMissing, chunk)
	}
	key := p.chunkKey(object, meta.version, chunk)
	// Choose the target and reserve it in the override map under the pool
	// lock, so two repairs placing different chunks of the same object can
	// never pick the same OSD.
	p.mu.Lock()
	resolve := func(c int) *OSD {
		if osd, ok := p.overrides[p.chunkKey(object, meta.version, c)]; ok {
			return osd
		}
		return p.pgOSDs[meta.pg][c]
	}
	prev, hadPrev := p.overrides[key]
	target := resolve(chunk)
	if !target.Alive() {
		// The chunk's home is down: re-place on a live OSD hosting no other
		// chunk of this object, so per-object placement stays one chunk per
		// node (a later failure can only take out one chunk).
		used := make(map[int]bool, p.N)
		for i := 0; i < p.N; i++ {
			if i != chunk {
				used[resolve(i).ID] = true
			}
		}
		target = nil
		for _, osd := range p.osds {
			if osd.Alive() && !used[osd.ID] {
				if target == nil || osd.NumChunks() < target.NumChunks() {
					target = osd
				}
			}
		}
		if target == nil {
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: object %s chunk %d", ErrNoRepairTarget, object, chunk)
		}
	}
	if target == p.pgOSDs[meta.pg][chunk] {
		delete(p.overrides, key)
	} else {
		p.overrides[key] = target
	}
	p.mu.Unlock()

	if err := target.PutChunk(ctx, key, data); err != nil {
		p.mu.Lock()
		if hadPrev {
			p.overrides[key] = prev
		} else {
			delete(p.overrides, key)
		}
		p.mu.Unlock()
		return nil, err
	}
	// An overwrite may have flipped the stripe version while the chunk was
	// being written; the repaired chunk then belongs to a dead stripe and
	// must not linger as an orphan.
	p.mu.Lock()
	if cur, ok := p.objects[object]; !ok || cur.version != meta.version {
		delete(p.overrides, key)
		p.mu.Unlock()
		_ = target.DeleteChunk(key)
		return target, nil
	}
	p.mu.Unlock()
	return target, nil
}

// ClusterView exports the pool's live topology as a cluster description the
// Sprout controller and optimizer operate on: one node per OSD (same IDs,
// same service distribution) and one file per object in sorted-name order
// (file ID = position), with each file's placement resolved to the OSDs
// actually hosting its chunks. lambdas, when non-nil, assigns per-file
// arrival rates (len must match the object count).
func (p *Pool) ClusterView(lambdas []float64) (*cluster.Cluster, error) {
	nodes := make([]cluster.Node, len(p.osds))
	for i, osd := range p.osds {
		nodes[i] = cluster.Node{
			ID:      osd.ID,
			Name:    fmt.Sprintf("osd-%d", osd.ID),
			Service: osd.Service(),
		}
	}
	objects := p.Objects()
	if lambdas != nil && len(lambdas) != len(objects) {
		return nil, fmt.Errorf("objstore: %d rates for %d objects", len(lambdas), len(objects))
	}
	files := make([]cluster.File, len(objects))
	for i, object := range objects {
		p.mu.RLock()
		meta := p.objects[object]
		p.mu.RUnlock()
		placement := make([]int, p.N)
		for c := 0; c < p.N; c++ {
			placement[c] = p.osdForChunk(meta.pg, object, meta.version, c).ID
		}
		lambda := 0.0
		if lambdas != nil {
			lambda = lambdas[i]
		}
		files[i] = cluster.File{
			ID:        i,
			Name:      object,
			SizeBytes: int64(meta.size),
			K:         p.K,
			N:         p.N,
			Placement: placement,
			Lambda:    lambda,
		}
	}
	clu := &cluster.Cluster{Nodes: nodes, Files: files}
	if err := clu.Validate(); err != nil {
		return nil, err
	}
	return clu, nil
}

// OSD returns the cluster's OSD with the given ID.
func (c *Cluster) OSD(id int) (*OSD, error) {
	for _, osd := range c.osds {
		if osd.ID == id {
			return osd, nil
		}
	}
	return nil, fmt.Errorf("objstore: no osd %d", id)
}

// FailOSDs takes the given OSDs Down, optionally dropping their chunks.
func (c *Cluster) FailOSDs(loseChunks bool, ids ...int) error {
	for _, id := range ids {
		osd, err := c.OSD(id)
		if err != nil {
			return err
		}
		osd.Fail(loseChunks)
	}
	return nil
}

// RecoverOSDs brings the given OSDs back from Down.
func (c *Cluster) RecoverOSDs(ids ...int) error {
	for _, id := range ids {
		osd, err := c.OSD(id)
		if err != nil {
			return err
		}
		osd.Recover()
	}
	return nil
}

// Health returns health snapshots for every OSD, sorted by ID.
func (c *Cluster) Health() []OSDHealth {
	out := make([]OSDHealth, len(c.osds))
	for i, osd := range c.osds {
		out[i] = osd.Health()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
