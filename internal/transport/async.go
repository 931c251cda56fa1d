package transport

import (
	"context"
	"fmt"
	"net"
	"time"

	"sprout/internal/core"
)

// sweepInterval is how often the client looks for asynchronous fetches and
// writes whose deadline has passed: such a fetch completes with
// context.DeadlineExceeded, and such a write's connection fails, no later than
// this (plus scheduling) after the deadline. The read that started a fetch
// watches its own context and has left by then; the sweep is what returns the
// node's in-flight count and the pending-table entry.
const sweepInterval = 10 * time.Millisecond

// startFetches issues one GetChunk per ref for the same object and returns
// without waiting: each ref's sink is completed later, from a connection's
// read loop, the sweep, or a fallback round trip — or right here when the
// request cannot be sent at all. It is RemoteFetcher.StartFetches below the
// object name.
func (c *Client) startFetches(ctx context.Context, pool, object string, refs []core.FetchRef) {
	c.counters.fetchBatches.Add(1)
	w := waiter{pool: pool, object: object}
	// The frames differ only in fixed-width fields, so one check covers all.
	req := Request{Op: OpGetChunk, Pool: pool, Object: object, Tenant: c.cfg.Tenant}
	err := validateRequest(&req, c.cfg.MaxFrameSize)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		for _, ref := range refs {
			w.of(ref).fail(err)
		}
		return
	}
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl.UnixNano()
	} else if c.cfg.RequestTimeout > 0 {
		w.deadline = time.Now().Add(c.cfg.RequestTimeout).UnixNano()
	}
	req.Deadline = uint64(w.deadline)
	c.counters.requests.Add(int64(len(refs)))

	// Small chunks leave in one write over one connection. Large ones are
	// spread over the pool, as separate round trips would have been: a
	// connection carries its responses one after another, and from spreadMin
	// on that transfer, not the extra write, is what the read waits for. The
	// chunks of one object are all the size the caller expects of the first.
	parts := 1
	if len(refs) > 0 && refs[0].Size >= spreadMin {
		parts = min(c.cfg.Conns, len(refs))
	}
	for ; parts > 1; parts-- {
		n := len(refs) / parts
		c.sendBatch(&req, w, refs[:n])
		refs = refs[n:]
	}
	c.sendBatch(&req, w, refs)
}

// spreadMin is the chunk size from which a batch's fetches are spread over
// the connection pool instead of sharing one connection: at 64 KiB a chunk
// takes several times longer to cross loopback than a second write costs.
const spreadMin = 64 << 10

// sendBatch sends refs' requests over one connection: the next in turn that
// is up and whose send side is free — the read's goroutine neither dials nor
// waits for a writer. When there is none, each fetch continues on the
// blocking path.
func (c *Client) sendBatch(req *Request, w waiter, refs []core.FetchRef) {
	slot := int(c.rr.Add(1)) % c.cfg.Conns
	for i := 0; i < c.cfg.Conns; i++ {
		if cc := c.slots[(slot+i)%c.cfg.Conns].cc.Load(); cc != nil && cc.send(req, w, refs) {
			return
		}
	}
	for _, ref := range refs {
		c.fallback(w.of(ref), slot, 0, nil)
	}
}

// send registers a waiter per ref and puts the batch's request frames on the
// wire with a single write from the calling goroutine. It reports false,
// having registered and sent nothing, when the connection is broken or its
// send side is busy — a round trip or another batch is writing, possibly to a
// peer that has stopped reading. Once it reports true every ref is somebody's
// to complete: the read loop's, fail's, or the sweep's.
func (cc *clientConn) send(req *Request, w waiter, refs []core.FetchRef) bool {
	select {
	case cc.sending <- struct{}{}:
	default:
		return false
	}
	n := uint64(len(refs))
	first := cc.client.nextID.Add(n) - n + 1
	// Registered before anything is written, or a response could beat its
	// waiter to the table.
	cc.mu.Lock()
	if cc.pending == nil {
		cc.mu.Unlock()
		<-cc.sending
		return false
	}
	for i, ref := range refs {
		cc.pending[first+uint64(i)] = w.of(ref)
	}
	cc.mu.Unlock()
	for i, ref := range refs {
		req.ID, req.Chunk = first+uint64(i), ref.ChunkIndex
		cc.batch.addRequest(req)
	}
	cc.write(w.deadline)
	return true
}

// complete hands a response to the asynchronous fetch that waited for it.
// Called from the connection's read loop, with no lock held.
func (c *Client) complete(w waiter, slot int, resp *Response) {
	err, retry := c.classify(resp)
	switch {
	case retry:
		c.fallback(w, slot, 1, err)
	case err != nil:
		w.fail(err)
	default:
		w.deliver(resp)
	}
}

// fallback continues an asynchronous fetch as a blocking round trip on a
// goroutine of its own — the rare case: the connection was not up, busy
// sending, or broke, or the server shed the request — so that dialing,
// queueing behind a slow write, retries, backoff and the retry budget are
// call's, not a second implementation. attempt and lastErr say where in
// attempts' loop it resumes: 0 when nothing was sent, 1 after a first attempt
// that failed in a way a round trip would retry. Its context is
// the client's own, bounded by the fetch's deadline: like the asynchronous
// path it serves, it does not see the caller's cancellation.
func (c *Client) fallback(w waiter, slot, attempt int, lastErr error) {
	if !c.reserve() {
		w.fail(net.ErrClosed)
		return
	}
	c.counters.asyncFallbacks.Add(1)
	go func() {
		defer c.wg.Done()
		ctx := c.base
		if w.deadline != 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Unix(0, w.deadline))
			defer cancel()
		}
		req := Request{Op: OpGetChunk, Pool: w.pool, Object: w.object, Chunk: w.chunk,
			Tenant: c.cfg.Tenant, Deadline: uint64(w.deadline)}
		resp, err := c.attempts(ctx, req, slot, attempt, lastErr)
		if err != nil {
			w.fail(err)
			return
		}
		w.deliver(&resp)
	}()
}

// sweepLoop enforces the deadlines of asynchronous fetches and of writes, one
// pass over every connection per tick, until Close.
func (c *Client) sweepLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(sweepInterval)
	defer tick.Stop()
	var expired []waiter
	for {
		select {
		case <-c.base.Done():
			return
		case <-tick.C:
			now := time.Now().UnixNano() // not the tick's: it may have waited
			for i := range c.slots {
				if cc := c.slots[i].cc.Load(); cc != nil {
					expired = cc.sweep(now, expired)
				}
			}
		}
	}
}

// errPeerStalled fails a connection whose peer stopped reading while a write
// was in progress, or stopped writing in the middle of a fetch's data field;
// it is retried over another connection like any broken one.
var errPeerStalled = fmt.Errorf("%w: peer stalled", errConnBroken)

// sweep completes the connection's asynchronous fetches whose deadline has
// passed with context.DeadlineExceeded, and fails the connection if a write,
// or the read of a fetch's data field, has been stuck past its own. expired
// is scratch, returned emptied.
func (cc *clientConn) sweep(now int64, expired []waiter) []waiter {
	w, r := cc.writeBy.Load(), cc.readBy.Load()
	if (w != 0 && now >= w) || (r != 0 && now >= r) {
		cc.fail(errPeerStalled)
		return expired
	}
	cc.mu.Lock()
	for id, w := range cc.pending {
		if w.sink != nil && w.deadline != 0 && now >= w.deadline {
			expired = append(expired, w)
			delete(cc.pending, id)
		}
	}
	cc.mu.Unlock()
	for i := range expired {
		expired[i].fail(context.DeadlineExceeded)
	}
	clear(expired)
	return expired[:0]
}

// fetchError words a failed chunk fetch the same on every path.
func fetchError(chunk int, pool, object string, err error) error {
	return fmt.Errorf("transport: fetch chunk %d of %s/%s: %w", chunk, pool, object, err)
}
