package resilience

import "time"

// The retry backoff the transport client and the repair plane share: the
// first retry waits up to backoffBase, each later one backoffGrowth times
// longer up to backoffMax, and backoffJitter of every delay is randomised.
const (
	backoffBase   = 2 * time.Millisecond
	backoffMax    = 250 * time.Millisecond
	backoffGrowth = 2
	backoffJitter = 0.5
)

// BackoffDelay returns the jittered exponential sleep before retry number
// attempt (0 = first retry), using u ∈ [0,1) as the jitter variate. It is a
// pure function: randomness stays in the caller (scheduler.PickFrom, the
// controller's rngPool), so tests stay deterministic.
func BackoffDelay(attempt int, u float64) time.Duration {
	d := float64(backoffBase)
	for i := 0; i < attempt && d < float64(backoffMax); i++ {
		d *= backoffGrowth
	}
	d = min(d, float64(backoffMax))
	u = min(max(u, 0), 1)
	// Spread over [d·(1−jitter), d] so concurrent retries decorrelate.
	return time.Duration(d * (1 - backoffJitter*(1-u)))
}
