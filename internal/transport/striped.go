package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"sprout/internal/cluster"
	"sprout/internal/erasure"
)

// StripedWriter is the transport's one ingest path: it encodes objects
// locally with the SIMD erasure coder and sends the n chunk writes together,
// one write per pooled connection they use, wrapped in a two-phase commit —
// stage every chunk under a fresh stripe version, then flip the object
// metadata with CommitObject. A failed put is aborted and stays
// invisible to readers. The server only stores chunks: n/k×S bytes cross
// the wire per object and the encode CPU is spent at the client.
type StripedWriter struct {
	// Client is the pooled transport client the chunk writes multiplex over.
	Client *Client
	// Pool is the remote erasure-coded pool to write into.
	Pool string
	// Code is the erasure coder; its (n, k) must match the remote pool.
	Code *erasure.Code
}

// NewStripedWriter builds a striped writer for a remote pool, querying the
// pool's (n, k) and constructing the matching coder.
func NewStripedWriter(ctx context.Context, client *Client, pool string) (*StripedWriter, error) {
	n, k, err := client.PoolInfo(ctx, pool)
	if err != nil {
		return nil, fmt.Errorf("transport: querying pool %q: %w", pool, err)
	}
	code, err := erasure.New(n, k)
	if err != nil {
		return nil, fmt.Errorf("transport: coder for pool %q: %w", pool, err)
	}
	return &StripedWriter{Client: client, Pool: pool, Code: code}, nil
}

// Put writes an object through the striped two-phase path and returns the
// committed stripe version: split + encode locally, BeginPut, stage the n
// chunks (their frames leave in one write per connection used and are
// answered together), commit — three round trips.
// Any failure aborts the staged chunks; the previously committed stripe, if
// one exists, remains fully readable throughout. data is sent without a
// copy: it is only read, and only until Put returns.
func (w *StripedWriter) Put(ctx context.Context, object string, data []byte) (uint64, error) {
	dataChunks, err := w.Code.Split(data)
	if err != nil {
		return 0, err
	}
	return w.putChunks(ctx, object, dataChunks, len(data))
}

// putChunks encodes pre-split data chunks and runs the staged write. Only
// the n-k parity chunks are computed, into a recycled set; the code is
// systematic, so storage chunks 0..k-1 are the data chunks themselves and
// are sent by reference — never copied, never multiplied, only read.
func (w *StripedWriter) putChunks(ctx context.Context, object string, dataChunks [][]byte, size int) (uint64, error) {
	set := paritySets.Get().(*paritySet)
	// stageChunks reads the chunks only inside its own writes, all of which
	// are over by the time it returns.
	defer set.recycle()
	storage, err := set.encode(w.Code, dataChunks)
	if err != nil {
		return 0, err
	}
	version, err := w.Client.BeginPut(ctx, w.Pool, object)
	if err != nil {
		return 0, err
	}
	err = w.Client.stageChunks(ctx, w.Pool, object, version, storage)
	if err == nil {
		err = w.Client.CommitObject(ctx, w.Pool, object, version, size)
	}
	if err != nil {
		w.abort(ctx, object, version)
		return 0, err
	}
	return version, nil
}

// stageChunks stages chunks[i] as chunk i of object's put at version the way
// startFetches sends a read's fetches: the requests leave over one connection
// in one write from the calling goroutine — divided over the pool, one write
// per connection, once the chunks are spreadMin or more — and the
// connections' read loops hand the responses back on one channel. The chunks
// the server shed, whose connection broke or that could not be sent are sent
// again together, the same way, over the next connection: each such replay is
// one retry, granted by the retry budget and backed off like a round trip's,
// up to cfg.Retries. The chunks are read only inside this goroutine's writes,
// so they are the caller's again when stageChunks returns. It returns the
// first failure; when ctx ends it takes its requests out of the pending
// tables and returns ctx's error.
func (c *Client) stageChunks(ctx context.Context, pool, object string, version uint64, chunks [][]byte) error {
	req := Request{Op: OpPutChunk, Pool: pool, Object: object, Version: version, Tenant: c.cfg.Tenant}
	for _, data := range chunks {
		req.Data = data
		if err := validateRequest(&req, c.cfg.MaxFrameSize); err != nil {
			return err
		}
	}
	ctx, cancel := c.withDeadline(ctx, &req)
	defer cancel()
	n := len(chunks)
	c.counters.requests.Add(int64(n))
	// A slot per chunk: each request is answered on it at most once, so the
	// read loop and fail never block on it, even once the put has returned.
	results := make(chan answer, n)
	// Spread as startFetches spreads a read's fetches, and for the same
	// reason: from spreadMin on, the transfer is what the put waits for.
	spread := n > 0 && len(chunks[0]) >= spreadMin
	// todo numbers the chunks the attempt sends, data holds them; again
	// gathers those to replay.
	todo, again, data := make([]int, n), make([]int, 0, n), make([][]byte, 0, n)
	for i := range todo {
		todo[i] = i
	}
	var lastErr error
	slot := int(c.rr.Add(1))
	for attempt := 0; len(todo) > 0; attempt++ {
		if attempt > 0 {
			if err := c.retry(ctx, attempt, lastErr); err != nil {
				return err
			}
			slot++
		}
		m := len(todo)
		data = data[:0]
		for _, i := range todo {
			data = append(data, chunks[i])
		}
		parts := 1
		if spread {
			parts = min(c.cfg.Conns, m)
		}
		first := c.nextID.Add(uint64(m)) - uint64(m) + 1
		var err error
		again = again[:0]
		from, waiting := 0, 0
		for p := 0; p < parts && err == nil; p++ {
			to, s := from+(m-from)/(parts-p), (slot+p)%c.cfg.Conns
			cc, sendErr := c.conn(s)
			if sendErr == nil {
				sendErr = cc.sendRun(ctx, &req, data[from:to], todo[from:to], first+uint64(from), results)
			}
			switch {
			case sendErr == nil:
				waiting += to - from
			case ctx.Err() != nil:
				err = ctx.Err()
			case errors.Is(sendErr, net.ErrClosed):
				err = sendErr
			default:
				again, lastErr = append(again, todo[from:to]...), sendErr
			}
			from = to
		}
		for ; waiting > 0 && err == nil; waiting-- {
			select {
			case r := <-results:
				rerr, retry := r.err, errors.Is(r.err, errConnBroken)
				if r.err == nil {
					rerr, retry = c.classify(&r.resp)
				}
				switch {
				case retry:
					again, lastErr = append(again, r.chunk), rerr
				case rerr != nil:
					err = rerr
				}
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err != nil {
			// Request IDs are the client's, so each connection holds only the
			// ones that were sent over it.
			for i := range c.slots {
				if cc := c.slots[i].cc.Load(); cc != nil {
					cc.drop(first, m)
				}
			}
			return err
		}
		todo, again = again, todo
	}
	return nil
}

// paritySet is one put's storage chunk list and the memory its parity is
// written into, recycled between puts so a put allocates no parity.
type paritySet struct {
	storage [][]byte
	backing []byte
}

var paritySets = sync.Pool{New: func() any { return new(paritySet) }}

// encode returns the n storage chunks of dataChunks: the data chunks
// followed by their parity, written into the set's backing.
func (s *paritySet) encode(code *erasure.Code, dataChunks [][]byte) ([][]byte, error) {
	size := 0
	if len(dataChunks) > 0 {
		size = len(dataChunks[0])
	}
	parity := code.N() - code.K()
	if cap(s.backing) < parity*size {
		s.backing = make([]byte, parity*size)
	}
	s.storage = append(s.storage[:0], dataChunks...)
	for i := 0; i < parity; i++ {
		s.storage = append(s.storage, s.backing[i*size:(i+1)*size:(i+1)*size])
	}
	if err := code.EncodeParityInto(dataChunks, s.storage[len(dataChunks):]); err != nil {
		return nil, err
	}
	return s.storage, nil
}

// recycle puts the set back, dropping its references to the data chunks.
func (s *paritySet) recycle() {
	clear(s.storage)
	s.storage = s.storage[:0]
	paritySets.Put(s)
}

// abort discards the staged put, using a fresh context so cleanup still
// happens when the put failed because ctx was cancelled.
func (w *StripedWriter) abort(ctx context.Context, object string, version uint64) {
	_ = w.Client.AbortPut(context.WithoutCancel(ctx), w.Pool, object, version)
}

// WriteObject implements the controller's ObjectWriter: a striped put of
// the file's object, named by cluster.ObjectName.
func (w *StripedWriter) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	return w.Put(ctx, cluster.ObjectName(fileID), data)
}

// WriteDataChunks implements the controller's DataChunkWriter fast path:
// the controller already split the payload for its cache write-through, so
// the striped write encodes straight from the shared data chunks and, per
// the interface's ownership rule, only reads them.
func (w *StripedWriter) WriteDataChunks(ctx context.Context, fileID int, dataChunks [][]byte, size int) (uint64, error) {
	return w.putChunks(ctx, cluster.ObjectName(fileID), dataChunks, size)
}
