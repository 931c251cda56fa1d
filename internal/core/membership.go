package core

import "sort"

// SetNodeDown marks a storage node (by cluster node ID) as down: the
// scheduler stops targeting it (surviving probabilities are renormalised),
// candidate failover skips it, and — when the auto-replanner is running —
// a replan against the degraded node set is requested immediately. It
// returns false if the node is unknown or already down.
//
// Membership is the only "down" verdict and comes from whoever actually
// knows: fault injection, or a heartbeat on OSD state. The read path's own
// error streaks feed ServeOptions.Breakers ("avoid"), never membership.
func (c *Controller) SetNodeDown(nodeID int) bool {
	return c.setMembership(nodeID, true)
}

// SetNodeUp marks a storage node as reachable again, restoring it to the
// scheduler's draws and requesting a replan. It returns false if the node
// is unknown or already up.
func (c *Controller) SetNodeUp(nodeID int) bool {
	return c.setMembership(nodeID, false)
}

func (c *Controller) setMembership(nodeID int, down bool) bool {
	pos, ok := c.nodeIdx[nodeID]
	if !ok {
		return false
	}
	c.mu.Lock()
	if c.epoch.Load().down[pos] == down {
		c.mu.Unlock()
		return false
	}
	c.swapEpochLocked(func(e *epoch) {
		if down {
			e.down[pos] = true
		} else {
			delete(e.down, pos)
		}
		if e.base != nil {
			e.assignment = e.base.Excluding(e.alive)
		}
	})
	c.stats.membershipChanges.Add(1)
	c.mu.Unlock()

	if c.replanKick != nil {
		select {
		case c.replanKick <- struct{}{}:
		default: // a replan is already pending
		}
	}
	return true
}

// DownNodes returns the cluster node IDs currently marked down, sorted.
func (c *Controller) DownNodes() []int {
	ep := c.epoch.Load()
	out := make([]int, 0, len(ep.down))
	for pos := range ep.down {
		out = append(out, nodeIDAt(ep.clu, pos))
	}
	sort.Ints(out)
	return out
}
