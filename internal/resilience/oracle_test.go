package resilience

// State returns the target's current breaker position (Closed for targets
// never observed): what this package's tests check transitions against.
func (s *BreakerSet) State(target int) BreakerState {
	if s == nil {
		return BreakerClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.m[target]; b != nil {
		return b.state
	}
	return BreakerClosed
}
