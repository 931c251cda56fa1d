package workload

import (
	"sync"
	"sync/atomic"
)

// idleWindows is how many consecutive ticks without a request make a file's
// estimate exactly 0. The moving average alone only decays towards 0, so a
// file nobody reads any more would otherwise keep a positive rate — and the
// cache planned for it — indefinitely.
const idleWindows = 3

// EWMAEstimator estimates per-file arrival rates with an exponentially
// weighted moving average over fixed ticks. Unlike RateEstimator (which
// keeps every event of a sliding window under a mutex), Observe is a single
// lock-free atomic increment, so it can sit directly on a concurrent read
// path; the control plane folds the counters into the moving average on a
// periodic Tick.
type EWMAEstimator struct {
	alpha  float64
	counts []atomic.Int64

	mu    sync.Mutex
	rates []float64 // current EWMA estimate, updated by Tick
	idle  []int     // consecutive ticks without a request, per file
	ticks int
}

// NewEWMAEstimator creates an estimator over numFiles files. alpha in (0,1]
// is the weight of the newest tick; values near 1 adapt fast, values near 0
// smooth hard. A non-positive or out-of-range alpha defaults to 0.3.
func NewEWMAEstimator(numFiles int, alpha float64) *EWMAEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &EWMAEstimator{
		alpha:  alpha,
		counts: make([]atomic.Int64, numFiles),
		rates:  make([]float64, numFiles),
		idle:   make([]int, numFiles),
	}
}

// Observe records one request for the file. Safe for concurrent use and
// lock-free.
func (e *EWMAEstimator) Observe(file int) {
	if file < 0 || file >= len(e.counts) {
		return
	}
	e.counts[file].Add(1)
}

// Tick folds the requests observed since the previous Tick into the moving
// average, treating them as spread over elapsed seconds, and returns a copy
// of the updated per-file rate estimates. The first tick seeds the average
// with the instantaneous rates (0 for a file without requests); after that a
// file without a request in the last three ticks reports exactly 0.
func (e *EWMAEstimator) Tick(elapsed float64) []float64 {
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.counts {
		n := e.counts[i].Swap(0)
		if n == 0 {
			e.idle[i]++
		} else {
			e.idle[i] = 0
		}
		inst := float64(n) / elapsed
		switch {
		case e.idle[i] >= idleWindows:
			e.rates[i] = 0
		case e.ticks == 0:
			e.rates[i] = inst
		default:
			e.rates[i] = e.alpha*inst + (1-e.alpha)*e.rates[i]
		}
	}
	e.ticks++
	return append([]float64(nil), e.rates...)
}

// Rates returns a copy of the current per-file rate estimates (as of the
// last Tick).
func (e *EWMAEstimator) Rates() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.rates...)
}
