package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/resilience"
)

// ClientConfig tunes the client's connection pool and retry behaviour.
type ClientConfig struct {
	// Conns is the connection-pool size; concurrent requests multiplex over
	// these connections round-robin. Default: 2.
	Conns int
	// DialTimeout bounds each TCP dial. Default: 5s.
	DialTimeout time.Duration
	// RequestTimeout applies to round trips whose context carries no
	// deadline of its own. Default: 30s. Set negative to disable.
	RequestTimeout time.Duration
	// Retries is the number of times a round trip is replayed after a
	// retryable failure — a broken connection or an overload rejection.
	// All protocol operations are idempotent, so replay is safe. Each
	// retry waits a jittered exponential backoff and must be granted by the
	// retry budget, so retries cannot amplify load into a struggling
	// server. Default: 2. Set to -1 to disable retries entirely.
	Retries int
	// MaxFrameSize bounds accepted response frames. Default:
	// DefaultMaxFrameSize.
	MaxFrameSize int
	// Backoff shapes the delay before each retry. The zero value uses the
	// resilience defaults (2ms base, ×2 growth, 250ms cap, 50% jitter).
	Backoff resilience.Backoff
	// RetryBudget, when set, governs this client's retries; several clients
	// may share one budget. When nil the client creates its own default
	// budget (10 tokens, 0.1 replenish ratio — steady-state retry
	// amplification ≤ 1.1×). Set NoRetryBudget to run without one.
	RetryBudget *resilience.RetryBudget
	// NoRetryBudget disables the retry budget (every retry is granted) —
	// the "resilience off" arm of A/B experiments.
	NoRetryBudget bool
	// Tenant names the workload class this client's requests belong to.
	// It is stamped into every request frame, so the server's weighted-fair
	// scheduler queues and serves them under that tenant's share. Empty
	// means the default tenant.
	Tenant string
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.MaxFrameSize <= 0 {
		c.MaxFrameSize = DefaultMaxFrameSize
	}
	return c
}

// Client is a pooled, multiplexing client for the object-store server. It
// is safe for concurrent use: requests pipeline over pooled connections and
// responses are demultiplexed by request ID.
type Client struct {
	addr   string
	cfg    ClientConfig
	budget *resilience.RetryBudget

	counters transportCounters
	nextID   atomic.Uint64
	rr       atomic.Uint64
	closed   atomic.Bool

	slots []connSlot
}

// connSlot guards one pooled connection; dialing holds only the slot's
// mutex, so a slow dial on one slot never blocks requests using the others.
type connSlot struct {
	mu sync.Mutex
	cc *clientConn
}

// NewClient creates a client for addr. Connections are dialed lazily.
func NewClient(addr string, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	budget := cfg.RetryBudget
	if budget == nil && !cfg.NoRetryBudget {
		budget = resilience.NewRetryBudget(0, 0)
	}
	return &Client{addr: addr, cfg: cfg, budget: budget, slots: make([]connSlot, cfg.Conns)}
}

// RetryBudget exposes the client's retry budget (nil when disabled), so
// callers can inspect exhaustion counts.
func (c *Client) RetryBudget() *resilience.RetryBudget { return c.budget }

// Dial creates a client with default configuration (dial timeout set to
// timeout) and verifies the server is reachable by establishing the first
// pooled connection eagerly.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialConfig(addr, ClientConfig{DialTimeout: timeout})
}

// DialConfig creates a client with the given configuration and establishes
// the first pooled connection eagerly.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	c := NewClient(addr, cfg)
	if _, err := c.conn(0); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() TransportStats { return c.counters.snapshot() }

// Close closes every pooled connection; in-flight round trips fail with a
// broken-connection error.
func (c *Client) Close() error {
	c.closed.Store(true)
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		if s.cc != nil {
			s.cc.fail(net.ErrClosed)
		}
		s.mu.Unlock()
	}
	return nil
}

// conn returns the pooled connection at slot, dialing it if absent or
// broken. Only the slot's own mutex is held across the dial.
func (c *Client) conn(slot int) (*clientConn, error) {
	if c.closed.Load() {
		return nil, net.ErrClosed
	}
	s := &c.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cc != nil && !s.cc.broken() {
		return s.cc, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	if c.closed.Load() {
		_ = conn.Close()
		return nil, net.ErrClosed
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c.counters.connsOpened.Add(1)
	cc := &clientConn{
		client:  c,
		conn:    conn,
		out:     make(chan *outRequest, 128),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan Response),
	}
	cc.written.L = &cc.wmu
	s.cc = cc
	go cc.readLoop()
	go cc.writeLoop()
	return cc, nil
}

// call performs one round trip, retrying broken connections and overload
// rejections with jittered exponential backoff, each retry granted by the
// retry budget. The context deadline travels in the request so the server
// can shed the work once it expires; deadline-exceeded responses are never
// retried (the deadline will not come back).
func (c *Client) call(ctx context.Context, req Request) (Response, error) {
	req.Tenant = c.cfg.Tenant
	if err := validateRequest(&req, c.cfg.MaxFrameSize); err != nil {
		return Response{}, err
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Deadline = uint64(dl.UnixNano())
	}
	c.counters.requests.Add(1)
	slot := int(c.rr.Add(1)) % c.cfg.Conns
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if !c.budget.Withdraw() {
				c.counters.retriesDenied.Add(1)
				break
			}
			c.counters.retries.Add(1)
			if err := resilience.Sleep(ctx, c.cfg.Backoff.Delay(attempt-1, rand.Float64())); err != nil {
				return Response{}, fmt.Errorf("transport: context done during retry backoff: %w", err)
			}
			slot = (slot + 1) % c.cfg.Conns
		}
		cc, err := c.conn(slot)
		if err != nil {
			lastErr = err
			if errors.Is(err, net.ErrClosed) {
				return Response{}, err
			}
			continue
		}
		resp, err := cc.roundTrip(ctx, req)
		if err == nil {
			if resp.OK() {
				c.budget.OnSuccess()
				return resp, nil
			}
			respErr := errorFromResponse(&resp)
			switch resp.Code {
			case codeOverloaded:
				// Retryable under the budget: back off and replay.
				c.counters.overloadRejections.Add(1)
				lastErr = respErr
				continue
			case codeDeadlineExceeded:
				c.counters.deadlineRejections.Add(1)
				return resp, respErr
			}
			// Typed application errors (not-found, chunk-missing, …) are
			// successful round trips as far as the transport is concerned.
			c.budget.OnSuccess()
			return resp, respErr
		}
		if !errors.Is(err, errConnBroken) {
			return Response{}, err
		}
		lastErr = err
	}
	return Response{}, fmt.Errorf("transport: request failed after retries: %w", lastErr)
}

// Put writes an object into a pool and returns the server-side latency.
// data is only read until the call returns — also when it returns early
// because ctx is done — so the caller may reuse the buffer afterwards.
func (c *Client) Put(ctx context.Context, pool, object string, data []byte) (time.Duration, error) {
	resp, err := c.call(ctx, Request{Op: OpPut, Pool: pool, Object: object, Data: data})
	return resp.Latency, err
}

// Get reads a whole object from a pool.
func (c *Client) Get(ctx context.Context, pool, object string) ([]byte, time.Duration, error) {
	resp, err := c.call(ctx, Request{Op: OpGet, Pool: pool, Object: object})
	return resp.Data, resp.Latency, err
}

// GetChunk reads a single coded chunk of an object.
func (c *Client) GetChunk(ctx context.Context, pool, object string, chunk int) ([]byte, time.Duration, error) {
	resp, err := c.call(ctx, Request{Op: OpGetChunk, Pool: pool, Object: object, Chunk: chunk})
	return resp.Data, resp.Latency, err
}

// GetChunkV reads a single coded chunk and additionally reports the stripe
// version and object size it belongs to, so callers assembling a stripe from
// several chunk reads can detect a concurrent overwrite instead of decoding
// a mixed-version stripe.
func (c *Client) GetChunkV(ctx context.Context, pool, object string, chunk int) ([]byte, uint64, int64, error) {
	resp, err := c.call(ctx, Request{Op: OpGetChunk, Pool: pool, Object: object, Chunk: chunk})
	return resp.Data, resp.Version, resp.Size, err
}

// BeginPut opens a two-phase put of an object and returns the stripe version
// chunks must be staged under. The staged stripe is invisible to readers
// until CommitObject.
func (c *Client) BeginPut(ctx context.Context, pool, object string) (uint64, error) {
	resp, err := c.call(ctx, Request{Op: OpBeginPut, Pool: pool, Object: object})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// PutChunk stages one locally encoded chunk of a two-phase put on its target
// OSD. Re-sending the same chunk (a retry) overwrites the staged payload.
// data is sent by reference but only read until the call returns — also
// when it returns early because ctx is done — so the caller may reuse the
// buffer afterwards.
func (c *Client) PutChunk(ctx context.Context, pool, object string, version uint64, chunk int, data []byte) (time.Duration, error) {
	resp, err := c.call(ctx, Request{Op: OpPutChunk, Pool: pool, Object: object, Version: version, Chunk: chunk, Data: data})
	return resp.Latency, err
}

// CommitObject atomically flips the object to the staged stripe version; the
// put becomes visible to readers only when this returns. size is the byte
// length of the original object. Replaying a commit that already succeeded
// is a no-op.
func (c *Client) CommitObject(ctx context.Context, pool, object string, version uint64, size int) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(size))
	_, err := c.call(ctx, Request{Op: OpCommitObject, Pool: pool, Object: object, Version: version, Data: buf[:]})
	return err
}

// AbortPut discards a staged put and deletes its staged chunks; a failed put
// is invisible to readers. Aborting an unknown put is a no-op.
func (c *Client) AbortPut(ctx context.Context, pool, object string, version uint64) error {
	_, err := c.call(ctx, Request{Op: OpAbortPut, Pool: pool, Object: object, Version: version})
	return err
}

// PoolInfo reports the erasure-code geometry of a remote pool, so a client
// can build the matching coder for striped writes.
func (c *Client) PoolInfo(ctx context.Context, pool string) (n, k int, err error) {
	resp, err := c.call(ctx, Request{Op: OpPoolInfo, Pool: pool})
	if err != nil {
		return 0, 0, err
	}
	var info struct{ N, K int }
	if err := json.Unmarshal(resp.Data, &info); err != nil {
		return 0, 0, fmt.Errorf("transport: decoding pool-info response: %w", err)
	}
	return info.N, info.K, nil
}

// List returns the object names in a pool.
func (c *Client) List(ctx context.Context, pool string) ([]string, error) {
	resp, err := c.call(ctx, Request{Op: OpList, Pool: pool})
	return resp.Names, err
}

// Pools returns the pool names served by the cluster.
func (c *Client) Pools(ctx context.Context) ([]string, error) {
	resp, err := c.call(ctx, Request{Op: OpPools})
	return resp.Names, err
}

// DeleteChunk removes one coded chunk of an object from its hosting OSD.
func (c *Client) DeleteChunk(ctx context.Context, pool, object string, chunk int) error {
	_, err := c.call(ctx, Request{Op: OpDeleteChunk, Pool: pool, Object: object, Chunk: chunk})
	return err
}

// Health returns the lifecycle state and health counters of every OSD in
// the remote cluster.
func (c *Client) Health(ctx context.Context) ([]objstore.OSDHealth, error) {
	resp, err := c.call(ctx, Request{Op: OpHealth})
	if err != nil {
		return nil, err
	}
	var out []objstore.OSDHealth
	if err := json.Unmarshal(resp.Data, &out); err != nil {
		return nil, fmt.Errorf("transport: decoding health response: %w", err)
	}
	return out, nil
}

// FailOSD takes a remote OSD down, optionally dropping its chunks —
// failure injection for drills against a live server.
func (c *Client) FailOSD(ctx context.Context, osdID int, loseChunks bool) error {
	var data []byte
	if loseChunks {
		data = []byte{1}
	}
	_, err := c.call(ctx, Request{Op: OpFailOSD, Chunk: osdID, Data: data})
	return err
}

// RecoverOSD brings a remote OSD back from Down.
func (c *Client) RecoverOSD(ctx context.Context, osdID int) error {
	_, err := c.call(ctx, Request{Op: OpRecoverOSD, Chunk: osdID})
	return err
}

// clientConn is one pooled connection: a write loop that encodes and
// batches request frames and a read loop that demultiplexes responses to
// waiters by ID.
type clientConn struct {
	client *Client
	conn   net.Conn
	out    chan *outRequest
	done   chan struct{}

	// written is signalled (under wmu) whenever the write loop has flushed
	// a batch and no longer reads its requests' payloads; a round trip that
	// gives up while its request is being written waits on it (see settle).
	wmu     sync.Mutex
	written sync.Cond

	mu       sync.Mutex
	pending  map[uint64]chan Response
	err      error
	failOnce sync.Once
}

// outRequest is a request queued for the write loop. state arbitrates
// between the write loop and a round trip that gives up, so that the write
// loop never reads req.Data after the caller has its buffer back:
// reqQueued → reqWriting → reqWritten when the write loop wins,
// reqQueued → reqWithdrawn when the round trip does.
type outRequest struct {
	req   Request
	state atomic.Uint32
}

const (
	reqQueued uint32 = iota
	reqWriting
	reqWritten
	reqWithdrawn
)

func (cc *clientConn) broken() bool {
	select {
	case <-cc.done:
		return true
	default:
		return false
	}
}

// fail marks the connection broken and wakes every pending round trip.
func (cc *clientConn) fail(err error) {
	cc.failOnce.Do(func() {
		cc.mu.Lock()
		cc.err = err
		cc.pending = nil
		cc.mu.Unlock()
		close(cc.done)
		_ = cc.conn.Close()
	})
}

// register installs a response channel for id; it fails if the connection
// is already broken.
func (cc *clientConn) register(id uint64) (chan Response, error) {
	ch := make(chan Response, 1)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.pending == nil {
		return nil, errConnBroken
	}
	cc.pending[id] = ch
	return ch, nil
}

func (cc *clientConn) unregister(id uint64) {
	cc.mu.Lock()
	if cc.pending != nil {
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
}

func (cc *clientConn) roundTrip(ctx context.Context, req Request) (Response, error) {
	req.ID = cc.client.nextID.Add(1)
	ch, err := cc.register(req.ID)
	if err != nil {
		return Response{}, err
	}
	out := &outRequest{req: req}
	select {
	case cc.out <- out:
	case <-cc.done:
		cc.unregister(req.ID)
		return Response{}, cc.brokenErr()
	case <-ctx.Done():
		cc.unregister(req.ID)
		return Response{}, ctx.Err()
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-cc.done:
		// The response may have been delivered in the same instant the
		// connection died; prefer it over the connection error.
		select {
		case resp := <-ch:
			return resp, nil
		default:
			cc.settle(out)
			return Response{}, cc.brokenErr()
		}
	case <-ctx.Done():
		cc.unregister(req.ID)
		cc.settle(out)
		return Response{}, ctx.Err()
	}
}

// settle ends the write loop's claim on a queued request whose round trip
// is giving up without a response, so the caller gets its payload buffer
// back with nobody reading it: a request still in the queue is withdrawn
// (the write loop will skip it — it never reaches the wire); one the write
// loop has gathered into a batch is waited for, which lasts until that batch
// is flushed or the connection fails. A request without a payload lends the
// write loop nothing, so it is never waited for.
func (cc *clientConn) settle(out *outRequest) {
	if out.state.CompareAndSwap(reqQueued, reqWithdrawn) || len(out.req.Data) == 0 {
		return
	}
	cc.wmu.Lock()
	for out.state.Load() == reqWriting {
		cc.written.Wait()
	}
	cc.wmu.Unlock()
}

// brokenErr returns the recorded connection-failure cause (which wraps
// errConnBroken), falling back to the bare sentinel.
func (cc *clientConn) brokenErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return errConnBroken
}

func (cc *clientConn) readLoop() {
	fr := newFrameReader(cc.conn)
	for {
		payload, err := fr.next(cc.client.cfg.MaxFrameSize)
		if err != nil {
			if !isDisconnect(err) {
				cc.client.counters.decodeErrors.Add(1)
			}
			cc.fail(fmt.Errorf("%w: %v", errConnBroken, err))
			return
		}
		cc.client.counters.countFrameIn(len(payload) + 4)
		resp, err := decodeResponse(payload)
		if err != nil {
			cc.client.counters.decodeErrors.Add(1)
			cc.fail(fmt.Errorf("%w: %v", errConnBroken, err))
			return
		}
		cc.mu.Lock()
		ch := cc.pending[resp.ID]
		if ch != nil {
			delete(cc.pending, resp.ID)
		}
		cc.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
		// A response for an unknown ID belongs to a round trip that was
		// cancelled; it is dropped.
	}
}

// clientWriter is the write loop's state: the batch being gathered and the
// requests in it whose payloads the batch reads until the next flush.
type clientWriter struct {
	batch frameBatch
	held  []*outRequest
}

func (cc *clientConn) writeLoop() {
	w := &clientWriter{batch: frameBatch{enc: make([]byte, 0, batchBufSize), ctr: &cc.client.counters}}
	for {
		select {
		case out := <-cc.out:
			if !cc.writeBatch(w, out) {
				cc.fail(errConnBroken)
				return
			}
		case <-cc.done:
			return
		}
	}
}

// writeBatch gathers out into the batch, then keeps draining queued requests
// — yielding once when the queue looks empty so concurrent callers coalesce
// — and flushes once per batch (or whenever the batch buffer is full),
// amortising syscalls under load. Requests withdrawn while queued are
// skipped and counted.
func (cc *clientConn) writeBatch(w *clientWriter, out *outRequest) bool {
	yielded := false
	for {
		if w.batch.full(encodedSize(requestPayloadSize(&out.req), out.req.Data)) && !cc.flush(w) {
			return false
		}
		if !out.state.CompareAndSwap(reqQueued, reqWriting) {
			cc.client.counters.withdrawn.Add(1)
		} else {
			w.batch.addRequest(&out.req)
			if len(out.req.Data) == 0 {
				out.state.Store(reqWritten) // nothing lent, nobody waits
			} else {
				w.held = append(w.held, out)
			}
		}
		select {
		case out = <-cc.out:
			yielded = false
			continue
		default:
		}
		if !yielded {
			yielded = true
			runtime.Gosched()
			select {
			case out = <-cc.out:
				continue
			default:
			}
		}
		return cc.flush(w)
	}
}

// flush writes the batch out and releases the requests whose payloads it
// read; they are released on failure too, as nothing reads them again.
func (cc *clientConn) flush(w *clientWriter) bool {
	err := w.batch.flush(cc.conn)
	if len(w.held) > 0 {
		cc.wmu.Lock()
		for i, out := range w.held {
			out.state.Store(reqWritten)
			w.held[i] = nil
		}
		cc.wmu.Unlock()
		cc.written.Broadcast()
		w.held = w.held[:0]
	}
	return err == nil
}
