package core

import (
	"sync"
	"time"

	"sprout/internal/optimizer"
)

// AutoscaleConfig tunes the cache autoscaler: a continuous actuator that
// grows and shrinks each file's functional-cache allocation between replans,
// driven by the same windowed EWMA rates that feed the auto-replanner. The
// optimizer still decides the shape of the allocation once per bin; the
// autoscaler corrects it at a much finer cadence:
//
//   - A file whose measured rate collapses (a cold flip) is scaled to zero
//     after ColdWindows consecutive cold evaluations — its chunks are
//     released instead of pinning cache for a bin's worth of dead traffic.
//   - A file whose rate rebounds is regrown to its planned allocation on the
//     next evaluation; the file's next read triggers the background fill, so
//     a hot flip re-materialises within one window.
//   - A file the plan gave nothing (the optimizer never saw its traffic)
//     that turns hotter than anything in the plan — a viral flip — is
//     granted the chunk budget freed by cold files, capped at its k.
//
// The cold/hot thresholds are deliberately separated (coldRatio well below
// hotRatio) and shrinks require ColdWindows consecutive cold evaluations, so
// a file oscillating around one threshold never flaps: growing resets the
// cold streak, and another shrink needs the full dwell again.
type AutoscaleConfig struct {
	// Interval is the evaluation cadence (and the EWMA fold cadence when the
	// autoscaler owns the estimator). Default 200ms.
	Interval time.Duration
	// MinRate is the absolute rate floor (req/s): below it a file is cold
	// regardless of plan, and no file is considered hot. Default 0.05.
	MinRate float64
	// ColdWindows is how many consecutive cold evaluations a file must
	// accumulate before it is scaled to zero. Default 3.
	ColdWindows int
}

const (
	// coldRatio: a file is cold when its measured rate falls below
	// coldRatio × its planned rate.
	coldRatio = 0.1
	// hotRatio: a file is hot (eligible to regrow) when its measured rate is
	// at least hotRatio × its planned rate.
	hotRatio = 0.5
)

func (cfg AutoscaleConfig) withDefaults() AutoscaleConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.MinRate <= 0 {
		cfg.MinRate = 0.05
	}
	if cfg.ColdWindows <= 0 {
		cfg.ColdWindows = 3
	}
	return cfg
}

// autoscaler holds the per-file overlay the actuator maintains on top of
// the optimizer's plan. step is only ever called from one goroutine (the
// autoscale loop, or a test driving it directly), so most of the overlay
// needs no lock; mutations of shared controller state go through c.mu.
// The exception is target, which the /metrics scrape path snapshots via
// AutoscaleTargets concurrently with the loop: every write to its elements
// and every cross-goroutine read holds targetMu (the loop's own unlocked
// reads are ordered with its writes by program order).
type autoscaler struct {
	c   *Controller
	cfg AutoscaleConfig

	plan       *optimizer.Plan // plan the overlay was derived from
	planned    []float64       // rates that plan was computed with
	maxPlanned float64
	targetMu   sync.Mutex
	target     []int // current per-file allocation targets
	coldStreak []int

	// owner/budgets mirror the controller's tenant cache-budget partition:
	// owner[fileID] indexes budgets, the per-tenant chunk shares. Nil when
	// no split is configured — the budget is then one shared pool.
	owner   []int
	budgets []int
}

func newAutoscaler(c *Controller, cfg AutoscaleConfig) *autoscaler {
	a := &autoscaler{
		c:          c,
		cfg:        cfg.withDefaults(),
		target:     make([]int, len(c.files)),
		coldStreak: make([]int, len(c.files)),
	}
	if c.tenantOwner != nil {
		a.owner = c.tenantOwner
		a.budgets = optimizer.SplitBudgets(c.capacity, c.tenantShares)
	}
	return a
}

// reset re-derives the overlay from a fresh plan: a replan is the
// optimizer's word, and the autoscaler starts correcting it from scratch.
func (a *autoscaler) reset(ep *epoch) {
	a.plan = ep.plan
	a.planned = ep.clu.Lambdas()
	a.maxPlanned = 0
	for _, l := range a.planned {
		if l > a.maxPlanned {
			a.maxPlanned = l
		}
	}
	a.targetMu.Lock()
	copy(a.target, ep.plan.D)
	a.targetMu.Unlock()
	for i := range a.coldStreak {
		a.coldStreak[i] = 0
	}
}

// freeBudgetFor is the chunk budget a grow of fileID may draw on: the whole
// unclaimed capacity without a tenant split, or — with one — the unclaimed
// slice of the owning tenant's share, so a viral file regrows only within
// its tenant's budget and can never squeeze another tenant's working set.
func (a *autoscaler) freeBudgetFor(fileID int) int {
	if a.owner == nil {
		used := 0
		for _, t := range a.target {
			used += t
		}
		return clampFloor(a.c.capacity - used)
	}
	tenant := a.owner[fileID]
	used := 0
	for i, t := range a.owner {
		if t == tenant {
			used += a.target[i]
		}
	}
	return clampFloor(a.budgets[tenant] - used)
}

func clampFloor(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// step runs one evaluation against the measured per-file rates.
func (a *autoscaler) step(rates []float64) {
	ep := a.c.epoch.Load()
	if ep.plan == nil || len(rates) != len(a.target) {
		return
	}
	if ep.plan != a.plan {
		a.reset(ep)
	}

	// Shrink pass: track cold streaks and scale long-cold files to zero.
	for i := range a.target {
		cold := rates[i] < a.cfg.MinRate
		if !cold && a.planned[i] > 0 && rates[i] < coldRatio*a.planned[i] {
			cold = true
		}
		if !cold {
			a.coldStreak[i] = 0
			continue
		}
		a.coldStreak[i]++
		if a.target[i] > 0 && a.coldStreak[i] >= a.cfg.ColdWindows {
			a.shrinkToZero(i)
		}
	}

	// Grow pass: regrow hot files to their planned allocation, and grant
	// freed budget to viral files the plan never accounted for.
	for i := range a.target {
		if a.coldStreak[i] > 0 || rates[i] < a.cfg.MinRate {
			continue
		}
		want := a.plan.D[i]
		if rates[i] < hotRatio*a.planned[i] {
			// Lukewarm: below the hot threshold the overlay holds steady —
			// the gap between coldRatio and hotRatio is the hysteresis band.
			continue
		}
		if want == 0 && rates[i] > a.maxPlanned {
			// Viral flip: hotter than any rate the plan was computed with.
			// Hand it the budget cold files freed (within its tenant's share
			// when the budget is split), up to its k (a functional cache
			// never needs more than k chunks of one file).
			grant := a.freeBudgetFor(i)
			if k := a.c.files[i].K; grant > k {
				grant = k
			}
			want = grant
		}
		if want > a.target[i] {
			a.grow(i, want)
		}
	}
}

// shrinkToZero releases the file's entire allocation: cached chunks are
// evicted and any pending fill is cancelled, so neither the cache nor the
// background pool keeps working for a file nobody reads.
func (a *autoscaler) shrinkToZero(fileID int) {
	c := a.c
	c.mu.Lock()
	evicted := c.cache.TrimFile(fileID, 0)
	c.swapEpochLocked(func(e *epoch) { delete(e.pending, fileID) })
	c.mu.Unlock()
	a.targetMu.Lock()
	a.target[fileID] = 0
	a.targetMu.Unlock()
	c.stats.autoscaleDowns.Add(1)
	c.stats.autoscaleToZero.Add(1)
	c.stats.autoscaleFreed.Add(int64(evicted))
}

// grow raises the file's target and registers it as pending, so the next
// read materialises the chunks through the existing background-fill path.
func (a *autoscaler) grow(fileID, want int) {
	c := a.c
	if k := c.files[fileID].K; want > k {
		want = k
	}
	if want <= a.target[fileID] {
		return
	}
	granted := want - a.target[fileID]
	c.mu.Lock()
	if c.cache.ChunksForFile(fileID) < want {
		c.swapEpochLocked(func(e *epoch) { e.pending[fileID] = want })
	}
	c.mu.Unlock()
	a.targetMu.Lock()
	a.target[fileID] = want
	a.targetMu.Unlock()
	a.coldStreak[fileID] = 0
	c.stats.autoscaleUps.Add(1)
	c.stats.autoscaleGranted.Add(int64(granted))
}

// registerAutoscaleJob installs the autoscaler on the shared scheduler:
// each tick folds the estimator at the autoscale cadence and runs one
// overlay evaluation.
func (c *Controller) registerAutoscaleJob(a *autoscaler) {
	last := time.Now()
	c.registerJob(a.cfg.Interval, func(now time.Time) {
		rates := c.est.Tick(now.Sub(last).Seconds())
		last = now
		a.step(rates)
	})
}

// AutoscaleTargets returns the autoscaler's current per-file allocation
// targets (nil when the autoscaler is off). For observability and tests.
func (c *Controller) AutoscaleTargets() []int {
	if c.asc == nil {
		return nil
	}
	c.asc.targetMu.Lock()
	defer c.asc.targetMu.Unlock()
	return append([]int(nil), c.asc.target...)
}
