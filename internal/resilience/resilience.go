// Package resilience holds the failure-handling primitives shared by the
// transport, controller, and repair planes: classification of overload
// errors (so load shedding is never mistaken for node death), per-target
// circuit breakers (so slow or flaky nodes are avoided before they drag
// whole reads down), token-bucket retry budgets (so retries amplify nothing
// under overload), and jittered exponential backoff.
//
// The package sits below every other plane and imports none of them; the
// planes agree on semantics by sharing these types rather than by
// re-implementing them.
package resilience

import (
	"context"
	"errors"
	"time"
)

// ErrOverload is the classification anchor for load-shedding errors: any
// error that wraps it (the transport's ErrOverloaded, the controller's
// ErrSaturated) means "the target is shedding load", not "the target is
// broken". Membership must ignore such errors — a busy node is not a dead
// node — while circuit breakers and retry budgets count them, because
// sending more traffic at a shedding target makes everything worse.
var ErrOverload = errors.New("resilience: overloaded")

// IsOverload reports whether err is a load-shedding rejection (server
// overload, admission-gate saturation) rather than a genuine failure.
func IsOverload(err error) bool { return errors.Is(err, ErrOverload) }

// Sleep is every plane's one context-aware wait: it returns nil after d, or
// earlier with the context's error once the context is done.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
