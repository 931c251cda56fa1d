package objstore

import "fmt"

// Inspection hooks for this package's tests.

// Version returns the committed stripe version of an object.
func (p *Pool) Version(object string) (uint64, error) {
	meta, ok := p.meta(object)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrObjectNotFound, object)
	}
	return meta.version, nil
}

// ObjectSize returns the stored size of an object.
func (p *Pool) ObjectSize(object string) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	meta, ok := p.objects[object]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrObjectNotFound, object)
	}
	return meta.size, nil
}

// ReapPrevious immediately deletes every stripe parked for deferred garbage
// collection and returns how many stripes were reaped. Used by tests and by
// quiesce points that want exact chunk accounting; steady-state overwrites
// reap automatically one commit later.
func (p *Pool) ReapPrevious() int {
	p.mu.Lock()
	parked := make([]prevStripe, 0, len(p.prev))
	objects := make([]string, 0, len(p.prev))
	for object, ps := range p.prev {
		parked = append(parked, ps)
		objects = append(objects, object)
		delete(p.prev, object)
	}
	p.mu.Unlock()
	for i, ps := range parked {
		p.reapOrZombie(objects[i], ps)
	}
	return len(parked)
}
