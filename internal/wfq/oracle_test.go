package wfq

import "sprout/internal/ring"

// Inspection hooks for this package's tests.

// Len returns the number of queued items across all tenants.
func (s *Sched[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, q := range s.order {
		n += q.n
	}
	return n
}

// TenantStats returns the per-tenant queue telemetry, keyed by tenant
// name. Parks are not per tenant and read 0 here.
func (s *Sched[T]) TenantStats() map[string]ring.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ring.Stats, len(s.order))
	for _, q := range s.order {
		out[q.name] = q.st
	}
	return out
}
