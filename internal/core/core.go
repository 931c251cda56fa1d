// Package core implements the Sprout controller — the paper's contribution
// glued into a usable component. A Controller owns the description of an
// erasure-coded storage cluster, a functional cache, and the per-time-bin
// cache plan produced by the optimizer. It serves file reads by combining
// cached functional chunks with chunks fetched from the placement nodes with
// the least expected work (probabilistic scheduling draws the starting order
// and breaks ties), and it applies the cache transition rule of Section III
// when the workload moves to a new time bin: allocations that shrink are
// trimmed immediately, allocations that grow are materialised in the
// background after the file's next read.
//
// Which chunks the cache holds for an allocation of d is erasure.CacheRows'
// decision, and every install goes through it: d functional chunks while
// 0 < d < k, so any k-d storage chunks complete the decode, and the k data
// chunks themselves once d = k, where no storage chunk takes part and a hit
// decodes by copy.
//
// The controller is split into two planes:
//
//   - The read plane (Read) is lock-free: it works off an immutable epoch
//     snapshot published through an atomic pointer, hands the chunk fetches of
//     a read to the fetcher's StartFetches (optionally hedging stragglers) and
//     takes their outcomes as completions — a fetcher that only has the
//     blocking FetchChunk is adapted to that shape once, in fetchParallel —
//     and records statistics in atomic counters and a latency histogram.
//   - The control plane (PlanTimeBin, the background fill workers, and the
//     auto-replanner) serialises on a mutex and publishes each change as a
//     fresh epoch snapshot.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/cache"
	"sprout/internal/cluster"
	"sprout/internal/erasure"
	"sprout/internal/metrics"
	"sprout/internal/optimizer"
	"sprout/internal/resilience"
	"sprout/internal/scheduler"
	"sprout/internal/wfq"
	"sprout/internal/workload"
)

// ChunkFetcher retrieves the payload of one coded chunk of a file from a
// storage node. Implementations include the in-process object store and the
// TCP client; tests use in-memory fakes.
//
// Fetchers must honour context cancellation. A FetchChunk the read plane
// runs for a fetcher that is not an AsyncChunkFetcher runs on a goroutine of
// its own, under a context that ends with the caller's and, when the read
// hedges, as soon as the read has gathered enough chunks: the adapter that
// runs those calls (blockingFetches) cancels the hedge losers, and Close
// waits for them. Nothing else is cancelled by the controller.
//
// The returned payload may be memory shared with the store — the in-process
// object store returns its stored chunk by reference — so the controller
// only ever reads it (objstore's chunk-ownership rule).
type ChunkFetcher interface {
	FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error)
}

// StripeInfo identifies the stripe a chunk belongs to; the zero value opts
// out of consistency checking (see cluster.StripeInfo).
type StripeInfo = cluster.StripeInfo

// VersionedChunkFetcher is implemented by fetchers that know which stripe
// version each chunk belongs to (the object store's versioned read path).
// The controller uses it to guarantee a read never decodes a mixed-version
// stripe: if chunks from two different overwrites, or stale cached chunks
// from before an overwrite, meet in one read, the read is retried against
// the new version instead of returning garbage.
type VersionedChunkFetcher interface {
	ChunkFetcher
	FetchChunkV(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, StripeInfo, error)
}

// FetchSink receives the outcome of one asynchronous chunk fetch: the chunk's
// payload and stripe on success, the fetch error otherwise.
type FetchSink interface {
	FetchDone(data []byte, info StripeInfo, err error)
}

// FetchRef is one fetch of a StartFetches batch: a coded chunk, the node
// holding it, the payload size the caller expects (⌈file size/k⌉; 0 when it
// does not know), the sink its outcome is delivered to, and Buf, memory the
// chunk may be received into (see AsyncChunkFetcher).
type FetchRef struct {
	ChunkIndex int
	NodeID     int
	Size       int
	Sink       FetchSink
	Buf        []byte
}

// AsyncChunkFetcher is implemented by fetchers that can send a read's chunk
// requests without a goroutine blocking in each round trip or service (the
// transport's RemoteFetcher, and the in-process stack.PoolIO, whose reads
// complete off the OSDs' timelines). It is the one shape the read plane
// fetches through: all the fetches a read launches at one point — the
// initial k−d, a failover, the hedges — are issued with a single
// StartFetches call from the read's own goroutine, and their outcomes are
// taken as completions. A fetcher without it is wrapped in one that has:
// each of its blocking FetchChunk calls runs on a goroutine of its own, which
// delivers to the same sink.
//
// The contract, for each ref of a call:
//
//   - Sink.FetchDone is called exactly once, with the outcome FetchChunkV
//     would have returned for that chunk.
//   - It may be called from any goroutine, and before StartFetches returns —
//     a fetch that fails before it is sent completes inside the call.
//   - It is never called with a lock of the fetcher's held, and it does not
//     block, so the fetcher may call it from a connection's read loop.
//   - refs is only valid during the call; the sinks are kept until they have
//     been called.
//   - Cancelling ctx does not complete a fetch: the read watches its own
//     context and leaves; the outcome still arrives — the response, or
//     context.DeadlineExceeded once the deadline (ctx's, else the fetcher's
//     default) has passed, whichever is first — and is delivered to the sink,
//     which must therefore outlive the read. Only ctx's deadline is used.
//   - The payload follows the same rule as ChunkFetcher's: it may be memory
//     shared with the store, so the controller only reads it.
//   - Buf is a hint any fetcher may ignore: one that receives chunks into
//     memory of its own (the transport) may receive an n-byte chunk into
//     Buf[:n] when cap(Buf) ≥ n and deliver that; a longer one leaves Buf
//     untouched. Buf is the read's (one per fetch slot of its scratch), so
//     the fetcher writes to it only while the fetch is its alone to complete:
//     taken out of whatever else could complete it (a deadline sweep, a
//     failing connection) before the first byte lands, and completed exactly
//     once, as a failed connection's pending fetches are, if the receive
//     breaks off. The read hands a Buf to no other fetch before this one's
//     sink is called and abandons a scratch it leaves with fetches
//     outstanding, so a hedge loser writes only into memory no later read
//     uses. Whatever outlives the read — fills, prefetch — copies the payload.
type AsyncChunkFetcher interface {
	ChunkFetcher
	StartFetches(ctx context.Context, fileID int, refs []FetchRef)
}

// ObjectWriter stores a complete object in the storage plane and returns the
// committed stripe version (0 when the backend is unversioned). The
// transport's StripedWriter — client-side SIMD encode, parallel staged chunk
// writes, two-phase commit — is the production implementation; tests use
// in-memory fakes.
type ObjectWriter interface {
	WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error)
}

// ObjectWriterFunc adapts a function to the ObjectWriter interface.
type ObjectWriterFunc func(ctx context.Context, fileID int, data []byte) (uint64, error)

// WriteObject implements ObjectWriter.
func (f ObjectWriterFunc) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	return f(ctx, fileID, data)
}

// DataChunkWriter is an optional ObjectWriter fast path: a writer that can
// consume the payload already split into k data chunks avoids re-splitting
// it. Controller.Write splits once for the cache write-through and hands
// the same chunks to the storage write when the writer supports it.
//
// The chunks may alias the caller's buffer (erasure.Split returns views of
// it), and the controller clones what it caches only after the write
// returns. So an implementation may read them until it returns and must
// neither write to them nor keep them past its return. The transport's
// StripedWriter is the one implementation: it reads a chunk only inside its
// own writes of the chunk frames, on the calling goroutine, all of which are
// over before it returns.
type DataChunkWriter interface {
	ObjectWriter
	WriteDataChunks(ctx context.Context, fileID int, dataChunks [][]byte, size int) (uint64, error)
}

// FileMeta is the controller's view of one stored file.
type FileMeta struct {
	ID        int
	SizeBytes int
	K         int
	N         int
	Placement []int // Placement[c] is the node storing coded chunk c, len == N
	Code      *erasure.Code
}

// ServeOptions tunes the controller's concurrent serving path. The zero
// value fetches chunks in parallel without hedging, runs two background fill
// workers, and leaves the adaptive loop off.
type ServeOptions struct {
	// HedgeDelay, when positive, arms a timer per read: if the read has not
	// gathered its chunks when the timer fires, up to HedgeExtra additional
	// fetches are launched against other nodes holding chunks of the file,
	// and the fastest responses win. A loser simply completes later (a blocking
	// FetchChunk has its context cancelled, see ChunkFetcher); its node counts
	// it in flight until the fetch really returns.
	HedgeDelay time.Duration
	// HedgeExtra is the maximum number of extra hedged fetches per read.
	// Defaults to 1 when HedgeDelay is set.
	HedgeExtra int

	// FillWorkers is the size of the background materialisation pool that
	// installs grown cache allocations after reads decode. Default 2.
	FillWorkers int

	// ReplanInterval, when positive, starts the adaptive loop, the one
	// mechanism that changes what the cache holds between manual plans:
	// every interval the EWMA workload estimator folds the observed request
	// rates (a file without a read in the last three folds reports exactly
	// 0), and when a folded rate moved between zero and non-zero, or by more
	// than ReplanThreshold relative to the rate the live plan was computed
	// with, the controller re-runs PlanTimeBin on the folded rates. The
	// plan's transition does the rest: a file gone idle loses its cached
	// chunks and pending fill at once, a file that turned hot is filled after
	// its next read. A period of tens of milliseconds makes the loop scale
	// the cache as fast as traffic moves; a long one is the paper's
	// per-time-bin re-optimisation. The loop is one goroutine of the
	// controller's own, and Close waits for it.
	ReplanInterval time.Duration
	// ReplanThreshold is the relative rate change that triggers a replan.
	// Default 0.25.
	ReplanThreshold float64

	// Breakers, when set, holds per-node circuit breakers consulted by the
	// read plane. Nodes whose breaker is open are demoted to the tail of the
	// candidate order — avoided while healthier replicas exist, but still
	// reachable as a last resort (a breaker is "avoid", the membership down
	// set is "gone"). Every fetch outcome is observed, so overload and
	// latency streaks open breakers without touching node health.
	Breakers *resilience.BreakerSet

	// Admission, when set, enables the saturation gate in front of Read:
	// as pressure rises the controller first stops hedging, then suppresses
	// background cache fills, and finally sheds low-value reads that would
	// need storage fetches (ErrSaturated).
	Admission *AdmissionConfig

	// Logf, when set, receives diagnostics from the background planes
	// (auto-replan failures). Never called on the read path.
	Logf func(format string, args ...any)

	// Tenants, when non-empty, makes tenants a first-class serving
	// dimension: reads resolve their tenant from the context (WithTenant —
	// the transport server stamps it from the request frame), per-tenant
	// policy shapes hedging, shedding, and rate limits, background fills are
	// scheduled weighted-fair across tenants, and — when policies list owned
	// files — the optimizer splits the cache budget across tenants by
	// weight, so every plan, the adaptive loop's included, keeps each
	// tenant's files within that tenant's share. Requests from tenants no
	// policy names are accounted under DefaultTenant with silver semantics.
	Tenants []TenantPolicy
}

// Validate rejects knobs withDefaults would otherwise silently replace or
// misread: a negative duration or count, a ReplanThreshold that is negative
// or not finite (a NaN never counts as drift, so the adaptive loop would
// re-plan only when a rate turns on or off), and a negative admission
// bound. Zero keeps its documented meaning, default or off.
// NewControllerWith runs it; callers that do expensive work before building
// a controller run it first.
func (o ServeOptions) Validate() error {
	switch {
	case o.HedgeDelay < 0:
		return fmt.Errorf("core: negative HedgeDelay %v", o.HedgeDelay)
	case o.HedgeExtra < 0:
		return fmt.Errorf("core: negative HedgeExtra %d", o.HedgeExtra)
	case o.FillWorkers < 0:
		return fmt.Errorf("core: negative FillWorkers %d", o.FillWorkers)
	case o.ReplanInterval < 0:
		return fmt.Errorf("core: negative ReplanInterval %v", o.ReplanInterval)
	case !(o.ReplanThreshold >= 0) || math.IsInf(o.ReplanThreshold, 1):
		return fmt.Errorf("core: ReplanThreshold %v is not a finite non-negative number", o.ReplanThreshold)
	}
	if a := o.Admission; a != nil && a.MaxInFlight < 0 {
		return fmt.Errorf("core: negative Admission.MaxInFlight %d", a.MaxInFlight)
	}
	return nil
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.HedgeDelay > 0 && o.HedgeExtra <= 0 {
		o.HedgeExtra = 1
	}
	if o.FillWorkers <= 0 {
		o.FillWorkers = 2
	}
	if o.ReplanThreshold <= 0 {
		o.ReplanThreshold = 0.25
	}
	return o
}

// rateAlpha is the EWMA weight of the newest fold of the adaptive loop's
// rate estimator.
const rateAlpha = 0.3

// epoch is one immutable snapshot of the control plane's state. The read
// plane loads it once per request through an atomic pointer and never takes
// a lock; the control plane publishes a fresh snapshot on every change
// (plan updates, fill completions, and membership changes), so concurrent
// readers always see a consistent (cluster, plan, assignment, membership)
// tuple.
type epoch struct {
	clu  *cluster.Cluster
	plan *optimizer.Plan
	// base is the assignment exactly as planned; assignment is the effective
	// one the read plane draws from — base with down nodes excluded and the
	// surviving probabilities renormalised.
	base       *scheduler.Assignment
	assignment *scheduler.Assignment
	// down marks storage nodes (by position in clu.Nodes) currently believed
	// unreachable: the scheduler never targets them and candidate failover
	// skips them.
	down map[int]bool
	// pending[fileID] is the target cache allocation for files whose
	// allocation grew in the current time bin and has not been materialised
	// yet (background fill after the next read).
	pending map[int]int
	// lowValue[fileID] marks files whose planned arrival rate is below the
	// bin's median — the reads shed first under deep saturation. Immutable;
	// shared across epoch copies. Nil until a plan is computed.
	lowValue []bool
}

// alive is the membership predicate handed to scheduler.Excluding.
func (e *epoch) alive(node int) bool { return !e.down[node] }

// Controller is the Sprout cache controller for one compute server.
type Controller struct {
	files    []FileMeta // immutable after construction
	capacity int
	cache    *cache.FunctionalCache
	opts     optimizer.Options
	serve    ServeOptions
	// nodeIdx maps cluster node IDs to positions in clu.Nodes (immutable).
	nodeIdx map[int]int
	// serviceMean[j] is E[S_j], the mean chunk service time in seconds of the
	// node at position j (immutable); nodeInFlight[j] counts this controller's
	// storage fetches currently outstanding on it. Together they are the
	// expected-work key the read plane ranks fetch candidates by.
	serviceMean  []float64
	nodeInFlight []atomic.Int64

	// epoch is the read plane's view; written only by the control plane
	// under mu.
	epoch atomic.Pointer[epoch]
	// mu serialises the control plane: plan swaps, fill installs, trims.
	// The read path never takes it.
	mu sync.Mutex

	// Per-goroutine RNGs for scheduler draws, seeded deterministically from
	// the controller seed.
	rngPool sync.Pool
	rngSeq  atomic.Int64

	// fileSizes holds the current byte size of each file; writes may change
	// it, so the read plane loads it atomically instead of trusting the
	// construction-time FileMeta.SizeBytes.
	fileSizes []atomic.Int64
	// cacheInfo[fileID] records which stripe (version, size) the file's
	// cached functional chunks were generated from; nil means unknown
	// (unversioned backend or chunks installed before versioning). The read
	// plane compares it against the versions reported by storage fetches and
	// drops the cache when it turns out stale.
	cacheInfo []atomic.Pointer[StripeInfo]

	fillQ        *wfq.Sched[fillJob]
	fillWG       sync.WaitGroup
	fillInFlight sync.Map // fileID -> struct{}, dedupes queued fills
	fills        fillTracker

	// tenants maps tenant names to their QoS state; nil when the QoS plane
	// is off (ServeOptions.Tenants empty). tenantDefault absorbs unnamed and
	// unknown tenants. tenantShares is the cache-budget partition (nil when
	// no policy lists files).
	tenants       map[string]*tenantState
	tenantDefault *tenantState
	tenantShares  []optimizer.TenantShare

	// fetchWG counts the goroutines running the fetches of fetchers that
	// only have the blocking FetchChunk (see blockingFetches); an
	// AsyncChunkFetcher starts none.
	fetchWG sync.WaitGroup

	est *workload.EWMAEstimator // non-nil when the adaptive loop runs
	// replanKick asks the adaptive loop for an immediate replan after a
	// membership change; nil unless the loop runs. loopWG waits for the
	// loop's goroutine.
	replanKick chan struct{}
	loopWG     sync.WaitGroup
	stopCh     chan struct{}
	stopOnce   sync.Once

	// adm is the saturation gate; nil when admission control is off.
	adm *admissionGate

	stats     counters
	hist      readHist
	writeHist metrics.Histogram
}

// Common errors.
var (
	ErrUnknownFile = errors.New("core: unknown file")
	ErrNoPlan      = errors.New("core: no cache plan computed yet")
)

// NewController builds a controller for the given cluster with a functional
// cache of cacheCapacity chunks and default serving options. Erasure coders
// are created per file.
func NewController(clu *cluster.Cluster, cacheCapacity int, opts optimizer.Options, seed int64) (*Controller, error) {
	return NewControllerWith(clu, cacheCapacity, opts, ServeOptions{}, seed)
}

// NewControllerWith builds a controller with explicit serving options. It
// returns an error for a negative duration or count, a ReplanThreshold that
// is negative or not finite, or a tenant policy set validateTenants rejects.
func NewControllerWith(clu *cluster.Cluster, cacheCapacity int, opts optimizer.Options, serve ServeOptions, seed int64) (*Controller, error) {
	if err := clu.Validate(); err != nil {
		return nil, err
	}
	if err := serve.Validate(); err != nil {
		return nil, err
	}
	if err := validateTenants(serve.Tenants, len(clu.Files)); err != nil {
		return nil, err
	}
	idx := clu.NodeIndex()
	files := make([]FileMeta, len(clu.Files))
	for i, f := range clu.Files {
		code, err := erasure.New(f.N, f.K)
		if err != nil {
			return nil, fmt.Errorf("core: file %d: %w", f.ID, err)
		}
		placement := make([]int, len(f.Placement))
		for c, nodeID := range f.Placement {
			placement[c] = idx[nodeID]
		}
		files[i] = FileMeta{
			ID:        i,
			SizeBytes: int(f.SizeBytes),
			K:         f.K,
			N:         f.N,
			Placement: placement,
			Code:      code,
		}
	}
	serve = serve.withDefaults()
	c := &Controller{
		files:        files,
		capacity:     cacheCapacity,
		cache:        cache.NewFunctionalCache(cacheCapacity),
		opts:         opts,
		serve:        serve,
		nodeIdx:      idx,
		serviceMean:  make([]float64, len(clu.Nodes)),
		nodeInFlight: make([]atomic.Int64, len(clu.Nodes)),
		fileSizes:    make([]atomic.Int64, len(files)),
		cacheInfo:    make([]atomic.Pointer[StripeInfo], len(files)),
		fillQ:        wfq.New[fillJob](wfq.Config{QueueCap: fillQueueCap, Weights: tenantWeights(serve.Tenants)}),
		stopCh:       make(chan struct{}),
	}
	for i := range files {
		c.fileSizes[i].Store(int64(files[i].SizeBytes))
	}
	for j, n := range clu.Nodes {
		c.serviceMean[j] = n.Service.Mean()
	}
	c.tenants, c.tenantDefault = buildTenants(serve.Tenants)
	if shares, names := tenantShares(serve.Tenants, len(files)); shares != nil {
		c.tenantShares = shares
		for t, budget := range optimizer.SplitBudgets(cacheCapacity, shares) {
			if ts := c.tenants[names[t]]; ts != nil {
				ts.cacheShare = budget
			}
		}
	}
	if serve.Admission != nil {
		c.adm = newAdmissionGate(*serve.Admission)
	}
	c.rngPool.New = func() any {
		return rand.New(rand.NewSource(seed + c.rngSeq.Add(1)))
	}
	c.epoch.Store(&epoch{clu: clu, down: map[int]bool{}, pending: map[int]int{}})
	for i := 0; i < serve.FillWorkers; i++ {
		c.fillWG.Add(1)
		go c.fillWorker()
	}
	if serve.ReplanInterval > 0 {
		c.est = workload.NewEWMAEstimator(len(files), rateAlpha)
		c.replanKick = make(chan struct{}, 1)
		c.loopWG.Add(1)
		go c.adaptLoop(serve.ReplanInterval)
	}
	return c, nil
}

// Close stops the background planes (fill workers and the adaptive loop)
// and waits for the blocking fetches still running, hedge losers included.
// In-flight fills are completed or discarded; Read must not be called after
// Close.
func (c *Controller) Close() error {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.loopWG.Wait()
	c.fillWG.Wait()
	// Discard fills still queued when the workers exited, releasing their
	// chunk-copy leases.
	for {
		job, ok := c.fillQ.TryPop()
		if !ok {
			break
		}
		job.lease.Release()
		c.fillInFlight.Delete(job.fileID)
		c.fills.add(-1)
	}
	c.fetchWG.Wait()
	return nil
}

// Files returns the controller's file metadata.
func (c *Controller) Files() []FileMeta {
	out := make([]FileMeta, len(c.files))
	copy(out, c.files)
	return out
}

// Cache exposes the underlying functional cache (read-mostly; used by the
// evaluation harness).
func (c *Controller) Cache() *cache.FunctionalCache { return c.cache }

// Plan returns the current cache plan, or nil if none has been computed.
func (c *Controller) Plan() *optimizer.Plan {
	return c.epoch.Load().plan
}

// CacheAllocationTarget returns the planned cache allocation d_i for the
// file in the current bin (0 when no plan exists).
func (c *Controller) CacheAllocationTarget(fileID int) int {
	ep := c.epoch.Load()
	if ep.plan == nil || fileID < 0 || fileID >= len(ep.plan.D) {
		return 0
	}
	return ep.plan.D[fileID]
}

// swapEpochLocked publishes a mutated copy of the current epoch. Must be
// called with c.mu held.
func (c *Controller) swapEpochLocked(mutate func(*epoch)) {
	cur := c.epoch.Load()
	next := &epoch{
		clu:        cur.clu,
		plan:       cur.plan,
		base:       cur.base,
		assignment: cur.assignment,
		down:       make(map[int]bool, len(cur.down)),
		pending:    make(map[int]int, len(cur.pending)),
		lowValue:   cur.lowValue,
	}
	for k, v := range cur.down {
		next.down[k] = v
	}
	for k, v := range cur.pending {
		next.pending[k] = v
	}
	mutate(next)
	c.epoch.Store(next)
}

// PlanTimeBin runs the cache optimization for a time bin with the given
// per-file arrival rates and applies the cache transition rule: shrinking
// allocations are trimmed immediately (a fully cached file re-encodes its
// remaining functional chunks locally); growing allocations are recorded in
// the new epoch's pending set and materialised in the background after the
// file's next read. The optimization runs against the live membership:
// down nodes are excluded from every file's candidate set, so the plan
// shifts cache capacity and scheduling probability onto the surviving
// nodes. It returns the new plan.
//
// The optimization itself runs outside the control-plane mutex; only the
// transition (trims plus the epoch swap) serialises with fills.
func (c *Controller) PlanTimeBin(lambdas []float64) (*optimizer.Plan, error) {
	cur := c.epoch.Load()
	clu, err := cur.clu.WithArrivalRates(lambdas)
	if err != nil {
		return nil, err
	}
	prob, err := optimizer.FromClusterExcluding(clu, c.capacity, cur.down)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	if prev := cur.plan; prev != nil {
		opts.WarmStart = prev.D
	}

	var plan *optimizer.Plan
	if c.tenantShares != nil {
		// Tenanted budget split: each tenant's files are optimized against
		// that tenant's weighted slice of the cache, so no tenant's plan can
		// squeeze another's working set out of the budget.
		plan, err = optimizer.OptimizeSplit(prob, opts, c.tenantShares)
	} else {
		plan, err = optimizer.Optimize(prob, opts)
	}
	if err != nil {
		return nil, err
	}
	base, err := scheduler.NewAssignment(plan.Pi)
	if err != nil {
		return nil, err
	}

	c.applyPlan(clu, plan, base, lambdas)
	return plan, nil
}

// applyPlan runs the cache transition for a freshly computed plan — shrink
// now, grow lazily — and publishes the plan's epoch.
func (c *Controller) applyPlan(clu *cluster.Cluster, plan *optimizer.Plan, base *scheduler.Assignment, lambdas []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := make(map[int]int)
	for fileID, target := range plan.D {
		have := c.cache.ChunksForFile(fileID)
		switch {
		case target < have:
			c.shrinkCachedLocked(c.files[fileID], target)
		case target > have:
			pending[fileID] = target
		}
	}
	// Membership may have moved while the optimizer ran: carry the current
	// down set and re-derive the effective assignment against it.
	next := &epoch{
		clu:      clu,
		plan:     plan,
		base:     base,
		down:     c.epoch.Load().down,
		pending:  pending,
		lowValue: lowValueFiles(lambdas),
	}
	next.assignment = base.Excluding(next.alive)
	c.epoch.Store(next)
	c.stats.planUpdates.Add(1)
}

// fetchChunkV fetches one chunk, reporting the stripe it belongs to when the
// fetcher is version-aware (zero StripeInfo otherwise).
func fetchChunkV(ctx context.Context, fetcher ChunkFetcher, fileID, chunkIndex, nodeID int) ([]byte, StripeInfo, error) {
	if vf, ok := fetcher.(VersionedChunkFetcher); ok {
		return vf.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	}
	data, err := fetcher.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	return data, StripeInfo{}, err
}

// shrinkCachedLocked cuts the file's cached set down to target chunks. A
// partially cached file holds functional rows n..n+have-1 and loses the
// highest ones. A fully cached file holds the systematic rows, and keeping
// target of those would leave an exact-caching subset that shadows storage
// chunks 0..target-1 — the scheduler would lose that many of its n placement
// choices — so its target functional rows are re-encoded from the cached data
// chunks instead (local GF(2^8) work, no storage I/O) and swapped in whole.
// The stripe record stays: both sets are images of the same stripe. Must be
// called with c.mu held.
func (c *Controller) shrinkCachedLocked(meta FileMeta, target int) {
	if data := c.cachedDataChunks(meta); data != nil && target > 0 {
		if set, err := meta.Code.CacheSet(data, target); err == nil {
			c.installCacheSetLocked(meta, data, set)
			return
		}
	}
	c.cache.TrimFile(meta.ID, target)
}

// cachedDataChunks returns the file's k data chunks when the cache holds it
// whole (the systematic set), nil otherwise.
func (c *Controller) cachedDataChunks(meta FileMeta) [][]byte {
	cached := c.cache.GetFile(meta.ID)
	data := make([][]byte, 0, meta.K)
	for _, row := range meta.Code.CacheRows(meta.K) {
		if ch, ok := cached[row]; ok {
			data = append(data, ch)
		}
	}
	if len(data) != meta.K {
		return nil
	}
	return data
}

// PrefetchCache eagerly materialises the planned cache content for every
// file using the fetcher (the offline placement phase described in the
// paper, typically run during low-load hours). Each file's k chunks come
// through the read plane's own fetch path — candidates() ranks the live
// placement nodes and skips down ones, fetchParallel fans the fetches out
// and fails over — so a down or failing node costs a failover, not the
// prefetch.
//
// Files are prefetched concurrently, at most one file per storage node at a
// time, so the storage nodes work in parallel while no node's queue grows
// past what one file per node puts on it. A file shed by an overloaded
// server (resilience.IsOverload) while other files were in flight is not a
// failure: it goes back on the list and one file fewer runs at a time from
// then on, down to one. Any other error, or a shed with only that file in
// flight, cancels the other files; PrefetchCache returns that file's error
// once every file it started has finished and every fetch they launched has
// completed.
func (c *Controller) PrefetchCache(ctx context.Context, fetcher ChunkFetcher) error {
	ep := c.epoch.Load()
	if ep.plan == nil {
		return ErrNoPlan
	}
	todo := make([]int, 0, len(ep.pending))
	for fileID := range ep.pending {
		todo = append(todo, fileID)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex // guards todo, workers and firstErr
		workers  = min(len(c.nodeInFlight), len(todo))
		firstErr error
		wg       sync.WaitGroup
	)
	// take hands out the next file, and whether its worker is the only one
	// left; a worker that gets none exits.
	take := func() (fileID int, alone, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || len(todo) == 0 {
			workers--
			return 0, false, false
		}
		fileID, todo = todo[len(todo)-1], todo[:len(todo)-1]
		return fileID, workers == 1, true
	}
	for w := workers; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				fileID, alone, ok := take()
				if !ok {
					return
				}
				err := c.prefetchFile(ctx, fetcher, ep, c.files[fileID])
				if err == nil {
					continue
				}
				mu.Lock()
				switch {
				case firstErr != nil:
				case resilience.IsOverload(err) && !alone:
					// Shed while other files were in flight: hand the
					// file back and run one file fewer at a time, or
					// retry it alone if this is the last worker.
					todo = append(todo, fileID)
					if workers == 1 {
						mu.Unlock()
						continue
					}
					workers--
				default:
					firstErr = fmt.Errorf("core: prefetch file %d: %w", fileID, err)
					cancel()
				}
				mu.Unlock()
				return
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// prefetchFile fetches k storage chunks of one file, checks they belong to
// one stripe version, decodes them and installs the file's pending fill. A
// failed prefetch waits for the fetches it left in flight before it returns,
// so a failed PrefetchCache leaves no fetch of its own behind.
func (c *Controller) prefetchFile(ctx context.Context, fetcher ChunkFetcher, ep *epoch, meta FileMeta) (err error) {
	sc := getReadScratch()
	defer func() {
		if err != nil {
			for ; sc.outstanding > 0; sc.outstanding-- {
				<-sc.results
			}
		}
		putReadScratch(sc)
	}()
	if _, err := c.fetchChunks(ctx, sc, fetcher, ep, meta, meta.K, 0); err != nil {
		return err
	}
	stripe, err := singleStripe(meta.ID, sc.infos)
	if err != nil {
		return err
	}
	// Reconstruct, not ReconstructInto(&sc.dec): the pooled scratch would
	// keep a file-sized backing array alive that no read ever uses.
	dataChunks, err := meta.Code.Reconstruct(sc.chunks)
	if err != nil {
		return err
	}
	return c.installFill(meta.ID, dataChunks, stripe)
}

// runReplan re-plans the time bin against the given rate estimate, counting
// errors and successes. Shared by the periodic drift check and the
// membership-change kick.
func (c *Controller) runReplan(rates []float64) {
	if _, err := c.PlanTimeBin(rates); err != nil {
		c.stats.replanErrors.Add(1)
		if c.serve.Logf != nil {
			c.serve.Logf("core: auto-replan: %v", err)
		}
		return
	}
	c.stats.autoReplans.Add(1)
}

// adaptLoop is the adaptive loop: every interval it folds the estimator
// and re-plans on drift (adapt), and a membership change's kick re-plans at
// once against the new node set without waiting for workload drift. It
// exits when Close closes stopCh.
func (c *Controller) adaptLoop(interval time.Duration) {
	defer c.loopWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	// Fold counters over measured elapsed time, not the nominal interval:
	// when a slow PlanTimeBin delays the tick, the counters hold several
	// intervals of requests and dividing by the interval would inflate the
	// rate estimate (and cascade into spurious replans).
	last := time.Now()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			c.adapt(now.Sub(last).Seconds())
			last = now
		case <-c.replanKick:
			c.replanNow()
		case <-c.stopCh:
			return
		}
	}
}

// replanNow re-plans against the current node set, using the freshest rate
// estimate (falling back to the rates the current plan was computed for
// when the estimator has not folded a tick yet).
func (c *Controller) replanNow() {
	ep := c.epoch.Load()
	if ep.plan == nil {
		return
	}
	rates := c.est.Rates()
	if !anyPositive(rates) {
		rates = ep.clu.Lambdas()
	}
	c.runReplan(rates)
}

// adapt is one pass of the adaptive loop: it folds the estimator over the
// elapsed seconds and re-plans when the folded rates moved away from the
// rates the live plan was computed with.
func (c *Controller) adapt(elapsed float64) {
	ep := c.epoch.Load()
	if ep.plan == nil {
		// Nothing to adapt until the first manual plan — and don't burn the
		// estimator's first-tick seeding on the zero counters accumulated
		// before serving starts.
		return
	}
	rates := c.est.Tick(elapsed)
	if ratesMoved(ep.clu.Lambdas(), rates, c.serve.ReplanThreshold) {
		c.runReplan(rates)
	}
}

// ratesMoved reports whether any rate differs from its planned value: it
// moved between zero and non-zero, or by more than threshold relative to the
// planned rate.
func ratesMoved(planned, rates []float64, threshold float64) bool {
	for i, r := range rates {
		p := planned[i]
		if (p == 0) != (r == 0) || math.Abs(r-p) > threshold*p {
			return true
		}
	}
	return false
}

func anyPositive(xs []float64) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

// chunkIndexOnNode returns the coded-chunk index stored on the given node
// (position in the cluster's node list), or -1 if the node hosts no chunk of
// this file.
func chunkIndexOnNode(meta FileMeta, node int) int {
	for c, n := range meta.Placement {
		if n == node {
			return c
		}
	}
	return -1
}

// nodeIDAt converts a node position back to the cluster's node ID.
func nodeIDAt(clu *cluster.Cluster, pos int) int {
	if pos < 0 || pos >= len(clu.Nodes) {
		return -1
	}
	return clu.Nodes[pos].ID
}
