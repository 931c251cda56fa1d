package workload

import (
	"math"
	"sync"
)

// RateEstimator is the sliding-window arrival-rate estimator described in
// Section III: it continuously measures per-file average request rates over
// a window and signals a new time bin when any file's rate changes by more
// than a threshold relative to the rate used for the current bin.
type RateEstimator struct {
	mu sync.Mutex

	window    float64 // window length in seconds
	threshold float64 // relative change that triggers a new time bin
	numFiles  int

	// events holds (time, file) pairs within the window, oldest first.
	events []rateEvent
	// binRates are the per-file rates the current time bin was planned with.
	binRates []float64
}

type rateEvent struct {
	t    float64
	file int
}

// NewRateEstimator creates an estimator over numFiles files with the given
// sliding-window length (seconds) and relative-change threshold (e.g. 0.25
// for a 25% change).
func NewRateEstimator(numFiles int, window, threshold float64) *RateEstimator {
	if window <= 0 {
		window = 100
	}
	if threshold <= 0 {
		threshold = 0.25
	}
	return &RateEstimator{
		window:    window,
		threshold: threshold,
		numFiles:  numFiles,
		binRates:  make([]float64, numFiles),
	}
}

// Observe records a request for the file at the given time (seconds,
// non-decreasing across calls).
func (e *RateEstimator) Observe(t float64, file int) {
	if file < 0 || file >= e.numFiles {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, rateEvent{t: t, file: file})
	e.expireLocked(t)
}

// Rates returns the current windowed per-file arrival-rate estimates at
// time t.
func (e *RateEstimator) Rates(t float64) []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.expireLocked(t)
	counts := make([]float64, e.numFiles)
	for _, ev := range e.events {
		counts[ev.file]++
	}
	span := e.window
	if t < e.window {
		span = math.Max(t, 1e-9)
	}
	for i := range counts {
		counts[i] /= span
	}
	return counts
}

// NeedsNewBin reports whether the estimated rates at time t deviate from the
// rates of the current bin by more than the threshold for any file. The
// comparison uses relative change with an absolute floor so files going from
// zero to non-zero (or vice versa) also trigger.
func (e *RateEstimator) NeedsNewBin(t float64) bool {
	current := e.Rates(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, r := range current {
		base := e.binRates[i]
		diff := math.Abs(r - base)
		scale := math.Max(base, 1e-9)
		if base == 0 && r > 0 {
			return true
		}
		if diff/scale > e.threshold {
			return true
		}
	}
	return false
}

// StartBin records the per-file rates the new time bin is planned with;
// subsequent NeedsNewBin calls compare against these.
func (e *RateEstimator) StartBin(rates []float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	copy(e.binRates, rates)
}

func (e *RateEstimator) expireLocked(now float64) {
	cutoff := now - e.window
	idx := 0
	for idx < len(e.events) && e.events[idx].t < cutoff {
		idx++
	}
	if idx > 0 {
		e.events = append(e.events[:0], e.events[idx:]...)
	}
}
