package objstore

import (
	"context"
	"fmt"
	"time"
)

// chunkOp is one chunk read or put on an OSD's timeline. The OSD owns it from
// start until it calls done — exactly once, never under its lock — unless
// cancel takes it off the timeline first.
type chunkOp struct {
	key  []byte // the chunk a read finds
	name string // the key a put stores data under
	put  bool
	data []byte // a put's chunk; a read's, once done
	// deadline, when set, ends the op with context.DeadlineExceeded if its
	// service has not ended by then.
	deadline time.Time
	done     interface{ opDone() }

	// Set by the OSD under its lock; end is zero until the op is the head.
	next         *chunkOp
	arrival, end time.Time
	delay        time.Duration
	err          error
}

// start places op at the tail of the timeline. It completes inline when the
// OSD is Down or op's slot has ended by the time it is placed, and from wake
// otherwise.
func (o *OSD) start(op *chunkOp) {
	op.next, op.end, op.err = nil, time.Time{}, nil
	if o.State() == StateDown {
		op.err = o.observe(fmt.Errorf("%w: osd %d", ErrOSDDown, o.ID))
		op.done.opDone()
		return
	}
	o.mu.Lock()
	op.arrival = time.Now()
	var done *chunkOp
	if o.tail == nil {
		o.head, o.tail = op, op
		done = o.advance(op.arrival)
	} else {
		o.tail.next, o.tail = op, op
	}
	o.mu.Unlock()
	deliver(done)
}

// cancel takes op off the timeline unless its slot has ended, and reports
// whether it did; an op taken off is never completed. Taking off the op in
// service ends its slot now, so the next one starts at once.
func (o *OSD) cancel(op *chunkOp) bool {
	o.mu.Lock()
	now := time.Now()
	var prev *chunkOp
	cur := o.head
	for cur != nil && cur != op {
		prev, cur = cur, cur.next
	}
	if cur == nil || (prev == nil && !op.end.After(now)) {
		o.mu.Unlock()
		return false
	}
	var done *chunkOp
	if prev == nil {
		o.head, o.busyUntil = op.next, now
		done = o.advance(now)
	} else if prev.next = op.next; o.tail == op {
		o.tail = prev
	}
	o.mu.Unlock()
	deliver(done)
	return true
}

// advance moves the timeline to now. The head starts at max(its arrival,
// busyUntil), where a read finds its chunk; an op that cannot be served (its
// chunk is missing, its deadline has passed) ends at its start without
// service, and one whose deadline falls inside its service ends there. Each
// head whose slot has ended is taken off — a put's chunk is stored, a served
// op counted — and wake is armed for the first one still in service.
// advance returns the ops it took off, linked through next, for the caller
// to deliver once it has released o.mu.
func (o *OSD) advance(now time.Time) (done *chunkOp) {
	last := &done
	for op := o.head; op != nil; op = o.head {
		if op.end.IsZero() {
			start := op.arrival
			if o.busyUntil.After(start) {
				start = o.busyUntil
			}
			op.end = start
			if !op.put {
				var ok bool
				if op.data, ok = o.chunks[string(op.key)]; !ok {
					op.err = fmt.Errorf("%w: %s on osd %d", ErrChunkMissing, op.key, o.ID)
				}
			}
			if op.err == nil {
				op.delay = o.sampleService(int64(len(op.data)))
				op.end = start.Add(op.delay)
				if dl := op.deadline; !dl.IsZero() && dl.Before(op.end) {
					op.end, op.err = start, context.DeadlineExceeded
					if dl.After(start) {
						op.end = dl
					}
				}
			}
		}
		if d := op.end.Sub(now); d > 0 {
			if o.wake == nil {
				o.wake = time.AfterFunc(d, func() {
					o.mu.Lock()
					done := o.advance(time.Now())
					o.mu.Unlock()
					deliver(done)
				})
			} else {
				o.wake.Reset(d)
			}
			return done
		}
		o.head, op.next, o.busyUntil = op.next, nil, op.end
		switch {
		case op.err != nil:
			o.observe(op.err)
		case op.put:
			o.chunks[op.name] = op.data
			fallthrough
		default:
			o.served.Add(1)
			o.busyNS.Add(int64(op.delay))
		}
		*last, last = op, &op.next
	}
	o.tail = nil
	return done
}

// deliver completes each op of a list advance returned, in order.
func deliver(op *chunkOp) {
	for op != nil {
		next := op.next
		op.done.opDone()
		op = next
	}
}
