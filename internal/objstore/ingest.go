package objstore

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"
)

// The ingest plane: striped writes commit through two phases. BeginPut
// allocates a fresh stripe version, StageChunk writes individual coded
// chunks under that version's keys (invisible to readers, because no
// committed object metadata points at them), and CommitObject atomically
// flips the object's metadata to the staged version — after which the old
// stripe's chunks are deleted. AbortPut deletes the staged chunks, so a
// failed or abandoned put leaves the previously committed stripe fully
// intact. Clients that encode locally (the SIMD coder) drive these three
// operations directly over the transport; Pool.PutV is the same machinery
// run server-side.

// stagedKey identifies one in-flight two-phase put.
type stagedKey struct {
	object  string
	version uint64
}

// prevStripe is a superseded stripe awaiting deferred garbage collection:
// the chunk keys and the OSDs that held them, resolved (through any repair
// overrides) at the moment the stripe was replaced.
type prevStripe struct {
	version uint64
	keys    []string
	targets []*OSD
}

// stagedPut tracks the chunks of one uncommitted stripe: which OSD holds
// each staged chunk (CRUSH position, or a live alternate when the CRUSH home
// is Down) so commit can install overrides and abort can clean up.
type stagedPut struct {
	pg        int
	started   time.Time
	chunkSize int          // payload size of the first staged chunk; all must match
	targets   map[int]*OSD // chunk index -> OSD holding the staged payload
}

// pinMeta atomically reads the object's committed metadata and pins its
// stripe version against garbage collection: the stripe stays readable until
// the matching unpin, no matter how many overwrites commit meanwhile.
func (p *Pool) pinMeta(object string) (objectMeta, bool) {
	p.mu.Lock()
	meta, ok := p.objects[object]
	if ok {
		p.pins[stagedKey{object, meta.version}]++
	}
	p.mu.Unlock()
	return meta, ok
}

// unpin releases a read pin; the last unpin of a zombie stripe (superseded
// while pinned) deletes its chunks.
func (p *Pool) unpin(object string, version uint64) {
	key := stagedKey{object, version}
	p.mu.Lock()
	p.pins[key]--
	var zombie prevStripe
	haveZombie := false
	if p.pins[key] <= 0 {
		delete(p.pins, key)
		if z, ok := p.zombies[key]; ok {
			zombie, haveZombie = z, true
			delete(p.zombies, key)
		}
	}
	p.mu.Unlock()
	if haveZombie {
		p.deleteStripe(zombie)
	}
}

// deleteStripe removes a dead stripe's chunks and its placement overrides
// (kept alive until now so pinned readers could resolve re-placed chunks).
// Must be called without p.mu held.
func (p *Pool) deleteStripe(ps prevStripe) {
	p.mu.Lock()
	for _, k := range ps.keys {
		delete(p.overrides, k)
	}
	p.mu.Unlock()
	for i := range ps.keys {
		_ = ps.targets[i].DeleteChunk(ps.keys[i])
	}
}

// reapOrZombie deletes a parked stripe's chunks unless readers still pin
// its version, in which case the stripe is parked as a zombie that the last
// unpin deletes. Must be called without p.mu held. Pinning a parked stripe
// anew is impossible — it left the committed metadata at least one commit
// ago — so the pin check cannot race a fresh reader.
func (p *Pool) reapOrZombie(object string, ps prevStripe) {
	key := stagedKey{object, ps.version}
	p.mu.Lock()
	if p.pins[key] > 0 {
		p.zombies[key] = ps
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.deleteStripe(ps)
}

// BeginPut opens a two-phase put of an object and returns the stripe version
// the chunks must be staged under. The version is unique across the pool and
// the staged stripe stays invisible to readers until CommitObject.
func (p *Pool) BeginPut(object string) (uint64, error) {
	if object == "" {
		return 0, fmt.Errorf("%w: empty object name", ErrBadPoolParams)
	}
	version := p.verSeq.Add(1)
	pg := p.placementGroup(object)
	p.mu.Lock()
	p.place(pg)
	p.staged[stagedKey{object, version}] = &stagedPut{
		pg:      pg,
		started: time.Now(),
		targets: make(map[int]*OSD, p.N),
	}
	p.mu.Unlock()
	return version, nil
}

// stageTarget picks the OSD to hold one staged chunk, under p.mu: the CRUSH
// position when it is alive, otherwise the least-loaded live OSD that hosts
// no other chunk of this stripe (so per-object placement keeps one chunk per
// node even for writes issued during an outage).
func (p *Pool) stageTarget(s *stagedPut, chunk int) (*OSD, error) {
	primary := p.pgOSDs[s.pg][chunk]
	if primary.Alive() {
		return primary, nil
	}
	used := make(map[int]bool, p.N)
	for c := 0; c < p.N; c++ {
		if c == chunk {
			continue
		}
		if osd, ok := s.targets[c]; ok {
			used[osd.ID] = true
		} else {
			used[p.pgOSDs[s.pg][c].ID] = true
		}
	}
	var target *OSD
	for _, osd := range p.osds {
		if osd.Alive() && !used[osd.ID] {
			if target == nil || osd.NumChunks() < target.NumChunks() {
				target = osd
			}
		}
	}
	if target == nil {
		return nil, fmt.Errorf("%w: staging chunk %d", ErrNoRepairTarget, chunk)
	}
	return target, nil
}

// StageChunk writes one coded chunk of a staged put to its target OSD. The
// put must have been opened with BeginPut; all chunks of a stripe must carry
// equally sized payloads. Re-staging the same chunk (a client retry)
// replaces the previous payload. The pool takes ownership of data: it is
// stored by reference and must not be written to again.
func (p *Pool) StageChunk(ctx context.Context, object string, version uint64, chunk int, data []byte) error {
	if chunk < 0 || chunk >= p.N {
		return fmt.Errorf("%w: chunk %d", ErrChunkMissing, chunk)
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: empty chunk payload", ErrStagedStripe)
	}
	key := stagedKey{object, version}
	p.mu.Lock()
	s, ok := p.staged[key]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %s v%d", ErrNoStagedPut, object, version)
	}
	if s.chunkSize == 0 {
		s.chunkSize = len(data)
	} else if s.chunkSize != len(data) {
		p.mu.Unlock()
		return fmt.Errorf("%w: chunk %d is %d bytes, stripe uses %d", ErrStagedStripe, chunk, len(data), s.chunkSize)
	}
	target, ok := s.targets[chunk]
	if !ok {
		var err error
		if target, err = p.stageTarget(s, chunk); err != nil {
			p.mu.Unlock()
			return err
		}
		s.targets[chunk] = target
	}
	p.mu.Unlock()

	chunkKey := p.chunkKey(object, version, chunk)
	if err := target.PutChunk(ctx, chunkKey, data); err != nil {
		p.mu.Lock()
		if s, ok := p.staged[key]; ok && s.targets[chunk] == target {
			delete(s.targets, chunk)
		}
		p.mu.Unlock()
		return err
	}
	// The put may have been aborted (client abort, stale-staging janitor)
	// while the chunk write was in flight; the abort's cleanup ran before
	// our chunk landed, so the orphan must be deleted here or it would leak
	// forever. If the session is gone because it committed (a client racing
	// its own commit), the chunk belongs to the live stripe and stays.
	p.mu.Lock()
	_, stillOpen := p.staged[key]
	committed := false
	if meta, ok := p.objects[object]; ok && meta.version == version {
		committed = true
	}
	p.mu.Unlock()
	if !stillOpen && !committed {
		_ = target.DeleteChunk(chunkKey)
		return fmt.Errorf("%w: %s v%d", ErrNoStagedPut, object, version)
	}
	return nil
}

// CommitObject makes a staged put visible: it verifies the stripe is
// complete, installs placement overrides for chunks staged away from their
// CRUSH home, and atomically flips the object metadata to the new version —
// readers arriving after CommitObject returns decode the new stripe, readers
// still pinned to the old version retry once its chunks are deleted.
// Committing an already-committed version again is a no-op (client replays
// after a lost response are safe).
func (p *Pool) CommitObject(object string, version uint64, size int) error {
	key := stagedKey{object, version}
	p.mu.Lock()
	s, ok := p.staged[key]
	if !ok {
		if meta, exists := p.objects[object]; exists && meta.version == version {
			p.mu.Unlock()
			return nil // replayed commit
		}
		p.mu.Unlock()
		return fmt.Errorf("%w: %s v%d", ErrNoStagedPut, object, version)
	}
	if len(s.targets) != p.N {
		p.mu.Unlock()
		return fmt.Errorf("%w: staged %d of %d chunks for %s v%d", ErrStagedStripe, len(s.targets), p.N, object, version)
	}
	if size <= 0 || (size+p.K-1)/p.K != s.chunkSize {
		p.mu.Unlock()
		return fmt.Errorf("%w: object size %d does not match %d-byte chunks", ErrStagedStripe, size, s.chunkSize)
	}
	if old, hadOld := p.objects[object]; hadOld && version < old.version {
		// Superseded: a put that began earlier is committing after a newer
		// stripe already became visible. Version order is the commit order
		// (metadata never moves backwards), so the put is accepted as
		// immediately-overwritten and its staged chunks are discarded.
		targets := s.targets
		delete(p.staged, stagedKey{object, version})
		p.mu.Unlock()
		for c, osd := range targets {
			_ = osd.DeleteChunk(p.chunkKey(object, version, c))
		}
		return nil
	}
	for c, osd := range s.targets {
		if osd != p.pgOSDs[s.pg][c] {
			p.overrides[p.chunkKey(object, version, c)] = osd
		}
	}
	// Deferred GC: the stripe parked by the previous overwrite dies now;
	// the stripe this commit replaces is parked until the next one. Readers
	// pinned at most one version behind the flip therefore always find
	// their chunks.
	reap, hasReap := p.prev[object]
	old, hadOld := p.objects[object]
	if hadOld {
		parked := prevStripe{
			version: old.version,
			keys:    make([]string, 0, p.N),
			targets: make([]*OSD, 0, p.N),
		}
		for c := 0; c < p.N; c++ {
			k := p.chunkKey(object, old.version, c)
			osd := p.pgOSDs[old.pg][c]
			if o, ok := p.overrides[k]; ok {
				// Keep the override alive: readers still pinned to the old
				// stripe must resolve re-placed chunks until the chunks are
				// actually deleted (reapOrZombie cleans the entries up).
				osd = o
			}
			parked.keys = append(parked.keys, k)
			parked.targets = append(parked.targets, osd)
		}
		p.prev[object] = parked
	}
	p.objects[object] = objectMeta{size: size, pg: s.pg, version: version}
	delete(p.staged, key)
	hooks := p.commitHooks
	p.mu.Unlock()

	// Deletion is best effort (a Down OSD keeps its obsolete chunks until it
	// is wiped or recovered) and respects read pins: a stripe still being
	// decoded becomes a zombie deleted by its last reader.
	if hasReap {
		p.reapOrZombie(object, reap)
	}
	for _, hook := range hooks {
		hook(object)
	}
	return nil
}

// AbortPut discards a staged put, deleting any chunks it staged. Aborting an
// unknown (already committed or already aborted) put is a no-op.
func (p *Pool) AbortPut(object string, version uint64) error {
	key := stagedKey{object, version}
	p.mu.Lock()
	s, ok := p.staged[key]
	if !ok {
		p.mu.Unlock()
		return nil
	}
	targets := make(map[int]*OSD, len(s.targets))
	for c, osd := range s.targets {
		targets[c] = osd
	}
	delete(p.staged, key)
	p.mu.Unlock()
	for c, osd := range targets {
		_ = osd.DeleteChunk(p.chunkKey(object, version, c))
	}
	return nil
}

// StagedPuts returns the number of in-flight two-phase puts.
func (p *Pool) StagedPuts() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.staged)
}

// AbortStaleStaged aborts staged puts older than the given age — clients
// that died between BeginPut and CommitObject would otherwise leak staged
// chunks on the OSDs forever. It returns the number of puts aborted.
func (p *Pool) AbortStaleStaged(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan)
	p.mu.RLock()
	stale := make([]stagedKey, 0)
	for key, s := range p.staged {
		if s.started.Before(cutoff) || olderThan <= 0 {
			stale = append(stale, key)
		}
	}
	p.mu.RUnlock()
	for _, key := range stale {
		_ = p.AbortPut(key.object, key.version)
	}
	return len(stale)
}

// PutV writes an object through the two-phase commit path and returns the
// committed stripe version: encode into n chunks (the SIMD data plane),
// stage them in parallel, then flip the version. On any staging or commit
// failure the staged chunks are aborted and the previously committed stripe
// remains untouched. data is copied exactly once, into a clone that Split
// cuts into views; those chunks and their parity are staged by reference,
// so the caller keeps data.
func (p *Pool) PutV(ctx context.Context, object string, data []byte) (uint64, error) {
	dataChunks, err := p.code.Split(bytes.Clone(data))
	if err != nil {
		return 0, err
	}
	parity, err := p.code.EncodeParity(dataChunks)
	if err != nil {
		return 0, err
	}
	storage := append(append(make([][]byte, 0, p.N), dataChunks...), parity...)
	version, err := p.BeginPut(object)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, p.N)
	for i := 0; i < p.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.StageChunk(ctx, object, version, i, storage[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			_ = p.AbortPut(object, version)
			return 0, err
		}
	}
	if err := p.CommitObject(object, version, len(data)); err != nil {
		_ = p.AbortPut(object, version)
		return 0, err
	}
	return version, nil
}
