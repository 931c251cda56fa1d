package transport

// Chaos switches only this package's tests flip.

// SetHangNewConns makes the server accept new connections and then never
// service them (accept-then-hang), until unset. Existing connections are
// unaffected.
func (c *Chaos) SetHangNewConns(v bool) {
	c.mu.Lock()
	c.hangNewConns = v
	c.mu.Unlock()
}
