// Package repair is the self-healing plane of the emulated storage cluster:
// a prioritized repair queue that schedules the most exposed objects
// (fewest surviving chunks) first, and a bounded worker pool that
// reconstructs lost chunks with the erasure coder and re-places them on
// live OSDs while the cluster keeps serving. It judges no node: membership
// is whatever the controller's SetNodeDown/SetNodeUp were told by whoever
// watches OSD state.
package repair

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/erasure"
	"sprout/internal/objstore"
	"sprout/internal/resilience"
	"sprout/internal/tick"
)

// Config tunes the repair manager.
type Config struct {
	// Workers is the size of the reconstruction worker pool. Default 2.
	Workers int
	// ScanInterval is the period of the background degradation scan. Zero
	// disables periodic scans; Kick and ScanOnce still work.
	ScanInterval time.Duration
	// Tick, when set, is a shared scheduler the periodic degradation scan
	// runs on instead of the manager owning a scan goroutine — one
	// process-wide timer batches every subsystem's periodic work. The
	// caller owns the scheduler's lifetime; Close only unregisters the
	// scan job. Nil means the manager owns a private scheduler.
	Tick *tick.Scheduler
	// Logf, when set, receives repair-plane diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// maxAttempts bounds per-chunk repair attempts. The count persists across
// scans: once a chunk has failed maxAttempts times it is marked stalled and
// stops being retried until its survivor count changes.
const maxAttempts = 3

// retryBackoff is the jittered exponential delay applied before a failed
// repair is re-enqueued, so a struggling pool is not hammered with immediate
// replays: the resilience defaults (2ms base, 250ms cap, doubling).
var retryBackoff resilience.Backoff

// Stats is a snapshot of the repair plane's progress counters.
type Stats struct {
	// Scans counts degradation scans; Enqueued counts chunk repairs accepted
	// into the queue (deduplicated).
	Scans    int64
	Enqueued int64
	// ChunksRepaired and BytesRepaired measure completed reconstructions;
	// RepairTime is the cumulative wall time spent reconstructing, so
	// BytesRepaired/RepairTime is the repair throughput.
	ChunksRepaired int64
	BytesRepaired  int64
	RepairTime     time.Duration
	// Skipped counts queued chunks found healthy by the time a worker got to
	// them; Deferred counts chunks with fewer than k surviving chunks (left
	// for a later scan, e.g. after an OSD recovers); Failures counts repair
	// attempts that errored; Retries counts re-enqueues after failures.
	Skipped  int64
	Deferred int64
	Failures int64
	Retries  int64
	// Stalled is the number of chunks currently out of attempt budget:
	// they failed maxAttempts times and wait for their survivor count to
	// change.
	Stalled int
	// QueueDepth is the current length of the repair queue; InFlight counts
	// queued plus running repairs.
	QueueDepth int
	InFlight   int64
}

// Manager owns the repair plane for one pool: the periodic degradation
// scan, the prioritized queue, and the worker pool that reconstructs lost
// chunks with the erasure coder and re-places them on live OSDs.
type Manager struct {
	pool *objstore.Pool
	cfg  Config

	queue *repairQueue

	// sched drives the periodic degradation scan (and Kick requests);
	// ownSched records whether Close must stop it or only unregister.
	// scanJob is set by Start; Kick may race it, hence the atomic.
	sched    *tick.Scheduler
	ownSched bool
	scanJob  atomic.Pointer[tick.Job]

	// attemptMu guards the persistent retry bookkeeping. attempts carries a
	// chunk's failure count across scans; stalled maps a chunk that
	// exhausted its budget to the survivor count it stalled at, so a scan
	// that sees a different count (an OSD came back, or more loss) retries
	// it from scratch.
	attemptMu sync.Mutex
	attempts  map[string]int
	stalled   map[string]int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	inFlight atomic.Int64

	scans          atomic.Int64
	enqueued       atomic.Int64
	chunksRepaired atomic.Int64
	bytesRepaired  atomic.Int64
	repairNS       atomic.Int64
	skipped        atomic.Int64
	deferred       atomic.Int64
	failures       atomic.Int64
	retries        atomic.Int64

	startOnce sync.Once
	closeOnce sync.Once
}

// NewManager builds a repair manager over the pool. Call Start to launch
// the workers and the periodic scan.
func NewManager(pool *objstore.Pool, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		pool:     pool,
		cfg:      cfg,
		queue:    newRepairQueue(),
		attempts: make(map[string]int),
		stalled:  make(map[string]int),
		ctx:      ctx,
		cancel:   cancel,
	}
	// The scheduler is picked here, not in Start, so Kick never races the
	// startOnce body; the scan job itself is only registered by Start.
	if m.sched = cfg.Tick; m.sched == nil {
		m.sched = tick.New()
		m.ownSched = true
	}
	return m
}

// Start launches the worker pool and registers the degradation scan on the
// scheduler. With ScanInterval set the scan is periodic; without it the
// job is kick-only (Kick and ScanOnce still work).
func (m *Manager) Start() {
	m.startOnce.Do(func() {
		for i := 0; i < m.cfg.Workers; i++ {
			m.wg.Add(1)
			go m.worker()
		}
		m.scanJob.Store(m.sched.Register(m.cfg.ScanInterval, func(time.Time) { m.scanTick() }))
	})
}

// Close stops the scan job and workers. In-flight repairs are cancelled.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.cancel()
		if m.sched != nil {
			if m.ownSched {
				m.sched.Close()
			} else {
				m.sched.Unregister(m.scanJob.Load())
			}
		}
		m.queue.close()
	})
	m.wg.Wait()
}

// Kick triggers an immediate degradation scan (e.g. right after a failure
// was injected or detected) without waiting for the next periodic tick.
// A Kick before Start is a no-op (the scan job is not registered yet).
func (m *Manager) Kick() {
	if job := m.scanJob.Load(); job != nil {
		m.sched.Kick(job)
	}
}

// ScanOnce scans the pool for degraded objects and enqueues their missing
// chunks, most-exposed objects first. Chunks that stalled (exhausted their
// attempt budget) are skipped unless their survivor count has changed since
// they stalled — different survivors mean the failing read set changed, so
// the repair is worth trying from scratch. It returns the number of chunk
// repairs newly enqueued.
func (m *Manager) ScanOnce() int {
	m.scans.Add(1)
	added := 0
	for _, deg := range m.pool.DegradedObjects() {
		for _, chunk := range deg.Missing {
			key := chunkID(deg.Object, chunk)
			m.attemptMu.Lock()
			if at, isStalled := m.stalled[key]; isStalled {
				if at == deg.Surviving {
					m.attemptMu.Unlock()
					continue
				}
				delete(m.stalled, key)
				delete(m.attempts, key)
			}
			attempts := m.attempts[key]
			m.attemptMu.Unlock()
			if m.enqueue(deg.Object, chunk, deg.Surviving, attempts) {
				added++
			}
		}
	}
	return added
}

// Stats returns a snapshot of the repair counters.
func (m *Manager) Stats() Stats {
	m.attemptMu.Lock()
	stalledCount := len(m.stalled)
	m.attemptMu.Unlock()
	return Stats{
		Stalled:        stalledCount,
		Scans:          m.scans.Load(),
		Enqueued:       m.enqueued.Load(),
		ChunksRepaired: m.chunksRepaired.Load(),
		BytesRepaired:  m.bytesRepaired.Load(),
		RepairTime:     time.Duration(m.repairNS.Load()),
		Skipped:        m.skipped.Load(),
		Deferred:       m.deferred.Load(),
		Failures:       m.failures.Load(),
		Retries:        m.retries.Load(),
		QueueDepth:     m.queue.len(),
		InFlight:       m.inFlight.Load(),
	}
}

// WaitIdle blocks until no repairs are queued or running, or the context is
// done. A drained queue does not imply a healthy pool: chunks with too few
// survivors are deferred to later scans.
func (m *Manager) WaitIdle(ctx context.Context) error {
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if m.inFlight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

func (m *Manager) enqueue(object string, chunk, surviving, attempts int) bool {
	m.inFlight.Add(1)
	if !m.queue.push(object, chunk, surviving, attempts) {
		m.inFlight.Add(-1)
		return false
	}
	m.enqueued.Add(1)
	return true
}

// scanTick is one degradation scan on the scheduler: enqueue missing
// chunks, and when the pool is fully healthy promote Recovering OSDs back
// to Up — the pool has regained full redundancy.
func (m *Manager) scanTick() {
	if m.ctx.Err() != nil {
		return
	}
	if m.ScanOnce() == 0 && m.queue.len() == 0 && m.inFlight.Load() == 0 {
		for _, osd := range m.pool.OSDs() {
			if osd.State() == objstore.StateRecovering {
				osd.MarkUp()
			}
		}
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		it := m.queue.pop()
		if it == nil {
			return
		}
		var err error
		if m.ctx.Err() == nil {
			err = m.repairOne(it)
		}
		m.queue.done(it.object, it.chunk)
		if err != nil {
			m.failures.Add(1)
			m.logf("%v", err)
			if m.ctx.Err() == nil {
				m.scheduleRetry(it)
			}
		} else {
			m.attemptMu.Lock()
			delete(m.attempts, chunkID(it.object, it.chunk))
			m.attemptMu.Unlock()
		}
		m.inFlight.Add(-1)
	}
}

// scheduleRetry persists a failed chunk's attempt count and either
// re-enqueues it after a jittered backoff delay or, once maxAttempts is
// reached, marks it stalled: no more retries until its survivor count
// changes. The backoff sleep happens off the
// worker and holds the in-flight count, so WaitIdle does not report idle
// while a retry is pending.
func (m *Manager) scheduleRetry(it *item) {
	key := chunkID(it.object, it.chunk)
	m.attemptMu.Lock()
	m.attempts[key] = it.attempts + 1
	if it.attempts+1 >= maxAttempts {
		m.stalled[key] = it.surviving
		m.attemptMu.Unlock()
		m.logf("repair: %s chunk %d stalled after %d attempts", it.object, it.chunk, it.attempts+1)
		return
	}
	m.attemptMu.Unlock()
	m.retries.Add(1)
	delay := retryBackoff.Delay(it.attempts, rand.Float64())
	m.inFlight.Add(1)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.inFlight.Add(-1)
		if resilience.Sleep(m.ctx, delay) != nil {
			return
		}
		m.enqueue(it.object, it.chunk, it.surviving, it.attempts+1)
	}()
}

// repairOne reconstructs one missing chunk: read any k surviving chunks,
// decode, regenerate the missing coded chunk, and place it on a live OSD.
// A returned error means the attempt failed and may be retried.
func (m *Manager) repairOne(it *item) error {
	start := time.Now()
	locs, err := m.pool.ChunkLocations(it.object)
	if err != nil {
		m.skipped.Add(1) // object deleted since the scan
		return nil
	}
	if loc := locs[it.chunk]; loc.Alive && loc.Present {
		m.skipped.Add(1) // healed by another path since the scan
		return nil
	}
	readable := make([]objstore.ChunkLocation, 0, len(locs))
	for _, loc := range locs {
		if loc.Alive && loc.Present {
			readable = append(readable, loc)
		}
	}
	code := m.pool.Code()
	if len(readable) < code.K() {
		// Not enough survivors to decode: leave the chunk for a later scan
		// (an OSD recovering with its chunks intact can change this).
		m.deferred.Add(1)
		m.logf("repair: %s chunk %d: only %d of %d chunks readable, deferring",
			it.object, it.chunk, len(readable), code.K())
		return nil
	}
	// Fetch survivors in parallel and keep the fastest k — repair reads
	// compete with live traffic in the OSD queues, so serialising them
	// would make rebuild time scale with queue depth times k.
	type fetchRes struct {
		chunk int
		data  []byte
		err   error
	}
	rctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	results := make(chan fetchRes, len(readable))
	for _, loc := range readable {
		go func(loc objstore.ChunkLocation) {
			data, err := m.pool.GetChunk(rctx, it.object, loc.Chunk)
			results <- fetchRes{chunk: loc.Chunk, data: data, err: err}
		}(loc)
	}
	chunks := make([]erasure.Chunk, 0, code.K())
	for received := 0; received < len(readable) && len(chunks) < code.K(); received++ {
		r := <-results
		if r.err != nil {
			continue
		}
		chunks = append(chunks, erasure.Chunk{Index: r.chunk, Data: r.data})
	}
	cancel()
	if len(chunks) < code.K() {
		return fmt.Errorf("repair: %s chunk %d: gathered %d of %d survivors",
			it.object, it.chunk, len(chunks), code.K())
	}
	dataChunks, err := code.Reconstruct(chunks)
	if err != nil {
		return fmt.Errorf("repair: %s chunk %d: %w", it.object, it.chunk, err)
	}
	payload, err := code.ChunkAt(it.chunk, dataChunks)
	if err != nil {
		return fmt.Errorf("repair: %s chunk %d: %w", it.object, it.chunk, err)
	}
	if _, err := m.pool.PlaceChunk(m.ctx, it.object, it.chunk, payload); err != nil {
		return fmt.Errorf("repair: %s chunk %d: %w", it.object, it.chunk, err)
	}
	m.chunksRepaired.Add(1)
	m.bytesRepaired.Add(int64(len(payload)))
	m.repairNS.Add(int64(time.Since(start)))
	return nil
}
