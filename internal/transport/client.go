package transport

// The client half of the transport. Every request reaches the server, and its
// response the caller, the same way; which goroutine does what:
//
//   - The goroutine that has a request — a blocking round trip (call:
//     GetChunk, BeginPut, CommitObject, the peer ops, … and every retry), a
//     striped put's n staged chunks (Client.stageChunks) or a controller read
//     with a batch of chunk fetches (RemoteFetcher.StartFetches) — takes the
//     connection's send side, registers who waits for each response, encodes
//     the frames into the connection's one frameBatch and writes them itself,
//     in one write. So a payload is only ever read inside its own caller's
//     write: nothing is lent to another goroutine.
//   - A round trip waits for the send side, as long as its context and the
//     connection last, and then for its response on a channel of its own. A
//     put waits the same way, and then for its chunks' responses on one
//     channel they share; a chunk the server shed, or whose connection broke,
//     it replays as a round trip. A fetch batch never waits: it takes the next
//     connection whose send side is free, and when none is, or the connection
//     breaks, or the server sheds a request, its fetches continue as blocking
//     round trips on goroutines of their own (Client.fallback) — so dialing,
//     retries, backoff and the retry budget exist once. Puts and fetch
//     batches alike use one connection per chunk run when the chunks are
//     large enough to be worth spreading over the pool.
//   - The connection's read loop is the only reader. It reads a response's
//     header, takes its ID out of the pending table, whose value says who
//     waits — a round trip's or a put's channel, or a fetch's sink and the
//     buffer the fetch brought (core.FetchRef.Buf), which the data field is
//     then read into. A sink it completes on the spot (Client.complete).
//   - One sweep goroutine per client enforces the deadlines of asynchronous
//     fetches, of writes in progress (a peer that stopped reading) and of
//     data fields being read (one that stalled mid-frame), not a timer per
//     request.
//
// Close waits for every goroutine mentioned here.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/core"
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
	// Replay is safe for every operation: the reads, CommitObject, AbortPut
	// and Invalidate are idempotent, a replayed PutChunk stages the same
	// bytes again, and a replayed BeginPut or CtrlWrite at worst leaves an
	// unused or superseded stripe version behind. Each retry waits
	// resilience.BackoffDelay (2ms doubling to 250ms, 50% jitter) and must
	// be granted by the retry budget, so retries cannot amplify load into a
	// struggling server. Default: 2. Set to -1 to disable retries entirely.
	Retries int
	// MaxFrameSize bounds accepted response frames. Default:
	// DefaultMaxFrameSize.
	MaxFrameSize int
	// NoRetryBudget disables the client's retry budget (every retry is
	// granted) — the "resilience off" arm of A/B experiments. By default
	// the client owns a budget of 10 tokens replenished 0.1 per success,
	// so steady-state retry amplification stays ≤ 1.1×; Client.RetryBudget
	// exposes it.
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

	// base is cancelled by Close: the client is closed when base.Err() is
	// set. It bounds what the client's own goroutines wait on — dials, retry
	// backoff, fallback round trips, the sweep — never a caller's round trip.
	base context.Context
	stop context.CancelFunc
	// lifeMu orders the start of a goroutine (reserve) against Close: base is
	// cancelled under it, and after that nothing is added to wg, so Close's
	// Wait sees them all. The sweep starts with the client's first connection,
	// so before anything is written.
	lifeMu    sync.Mutex
	wg        sync.WaitGroup
	sweepOnce sync.Once

	slots []connSlot
}

// connSlot holds one pooled connection; dialing holds only the slot's mutex,
// so a slow dial on one slot never blocks requests using the others, and the
// connection is read without it.
type connSlot struct {
	mu sync.Mutex
	cc atomic.Pointer[clientConn]
}

// NewClient creates a client for addr. Connections are dialed lazily.
func NewClient(addr string, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	var budget *resilience.RetryBudget
	if !cfg.NoRetryBudget {
		budget = resilience.NewRetryBudget(0, 0)
	}
	c := &Client{addr: addr, cfg: cfg, budget: budget, slots: make([]connSlot, cfg.Conns)}
	c.base, c.stop = context.WithCancel(context.Background())
	return c
}

// RetryBudget exposes the client's retry budget (nil when disabled), so
// callers can inspect exhaustion counts.
func (c *Client) RetryBudget() *resilience.RetryBudget { return c.budget }

// DialConfig creates a client with the given configuration and establishes
// the first pooled connection eagerly.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	c := NewClient(addr, cfg)
	if _, err := c.conn(0); err != nil {
		_ = c.Close() // nothing was started; releases the base context
		return nil, err
	}
	return c, nil
}

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() TransportStats { return c.counters.snapshot() }

// Close closes every pooled connection and returns once every goroutine the
// client started — connection read loops, the deadline sweep, fallback round
// trips — has exited. In-flight round trips fail with a
// broken-connection error, asynchronous fetches still pending complete with
// net.ErrClosed. Close may be called more than once.
func (c *Client) Close() error {
	c.lifeMu.Lock()
	c.stop()
	c.lifeMu.Unlock()
	for i := range c.slots {
		if cc := c.slots[i].cc.Load(); cc != nil {
			cc.fail(net.ErrClosed)
		}
	}
	c.wg.Wait()
	return nil
}

// reserve counts a goroutine about to be started into the set Close waits
// for. It reports false, having counted nothing, once the client is closed.
func (c *Client) reserve() bool {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.base.Err() != nil {
		return false
	}
	c.wg.Add(1)
	return true
}

// conn returns the pooled connection at slot, dialing it if absent or
// broken. Only the slot's own mutex is held across the dial.
func (c *Client) conn(slot int) (*clientConn, error) {
	s := &c.slots[slot]
	if cc := s.cc.Load(); cc != nil && !cc.broken() {
		return cc, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cc := s.cc.Load(); cc != nil && !cc.broken() {
		return cc, nil
	}
	if c.base.Err() != nil {
		return nil, net.ErrClosed
	}
	dialer := net.Dialer{Timeout: c.cfg.DialTimeout}
	conn, err := dialer.DialContext(c.base, "tcp", c.addr)
	if err != nil {
		if c.base.Err() != nil {
			return nil, net.ErrClosed
		}
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return c.adopt(slot, conn)
}

// adopt makes conn the pooled connection at slot and starts its read loop —
// and, with the client's first connection, the sweep. The caller holds the
// slot's mutex.
func (c *Client) adopt(slot int, conn net.Conn) (*clientConn, error) {
	cc := &clientConn{
		client:  c,
		slot:    slot,
		conn:    conn,
		sending: make(chan struct{}, 1),
		batch:   frameBatch{ctr: &c.counters},
		done:    make(chan struct{}),
		pending: make(map[uint64]waiter),
	}
	// Counted and published in one step under lifeMu: a Close that does not
	// find the connection has not cancelled base yet, so its Wait cannot miss
	// the read loop either.
	c.lifeMu.Lock()
	if c.base.Err() != nil {
		c.lifeMu.Unlock()
		_ = conn.Close()
		return nil, net.ErrClosed
	}
	c.wg.Add(1)
	c.slots[slot].cc.Store(cc)
	c.sweepOnce.Do(func() {
		c.wg.Add(1)
		go c.sweepLoop()
	})
	c.lifeMu.Unlock()
	c.counters.connsOpened.Add(1)
	go cc.readLoop()
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
	ctx, cancel := c.withDeadline(ctx, &req)
	defer cancel()
	c.counters.requests.Add(1)
	return c.attempts(ctx, req, int(c.rr.Add(1))%c.cfg.Conns, 0, nil)
}

// withDeadline bounds ctx by RequestTimeout when it carries no deadline of
// its own, and stamps the deadline into req.
func (c *Client) withDeadline(ctx context.Context, req *Request) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Deadline = uint64(dl.UnixNano())
	}
	return ctx, cancel
}

// attempts is the retry loop of one request: round trips number first,
// first+1, … up to cfg.Retries, attempt 0 over the connection at slot and
// each later one — once retry granted it — over the next. A caller that
// starts past attempt 0 (an asynchronous fetch whose first attempt failed in
// a retryable way) passes that failure as lastErr.
func (c *Client) attempts(ctx context.Context, req Request, slot, first int, lastErr error) (Response, error) {
	for attempt := first; ; attempt++ {
		if attempt > 0 {
			if err := c.retry(ctx, attempt, lastErr); err != nil {
				return Response{}, err
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
			respErr, retry := c.classify(&resp)
			if retry {
				lastErr = respErr
				continue
			}
			return resp, respErr
		}
		if !errors.Is(err, errConnBroken) {
			return Response{}, err
		}
		lastErr = err
	}
}

// retry grants attempt, a retry of what last failed with lastErr: it must be
// within cfg.Retries and granted by the retry budget, and it sleeps the
// attempt's backoff first. The error it returns ends the request.
func (c *Client) retry(ctx context.Context, attempt int, lastErr error) error {
	if attempt > c.cfg.Retries {
		return fmt.Errorf("transport: request failed after retries: %w", lastErr)
	}
	if !c.budget.Withdraw() {
		c.counters.retriesDenied.Add(1)
		return fmt.Errorf("transport: request failed after retries: %w", lastErr)
	}
	c.counters.retries.Add(1)
	if err := resilience.Sleep(ctx, resilience.BackoffDelay(attempt-1, rand.Float64())); err != nil {
		return fmt.Errorf("transport: context done during retry backoff: %w", err)
	}
	return nil
}

// classify is the one place a response becomes a request's outcome, for
// blocking round trips and asynchronous fetches alike: it counts the
// response, credits the retry budget, and returns the error the caller gets
// — or, with retry set, the error a replay under the budget starts from.
func (c *Client) classify(resp *Response) (err error, retry bool) {
	if resp.OK() {
		c.budget.OnSuccess()
		return nil, false
	}
	err = errorFromResponse(resp)
	switch resp.Code {
	case codeOverloaded:
		// Retryable under the budget: back off and replay.
		c.counters.overloadRejections.Add(1)
		return err, true
	case codeDeadlineExceeded:
		// Never retried: the deadline will not come back.
		c.counters.deadlineRejections.Add(1)
		return err, false
	}
	// Typed application errors (not-found, chunk-missing, …) are
	// successful round trips as far as the transport is concerned.
	c.budget.OnSuccess()
	return err, false
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

// Pools returns the pool names served by the cluster.
func (c *Client) Pools(ctx context.Context) ([]string, error) {
	resp, err := c.call(ctx, Request{Op: OpPools})
	return resp.Names, err
}

// clientConn is one pooled connection: whoever has a request writes it
// (roundTrip, send), and a read loop demultiplexes responses to waiters by ID.
type clientConn struct {
	client *Client
	slot   int
	conn   net.Conn
	done   chan struct{}

	// sending is the connection's send side, held (a token in the one-slot
	// channel) around every write to conn, so the frames of one write never
	// interleave with another's. batch, under it, is what every write encodes
	// into. writeBy is the deadline (unix ns, 0 = none) of the write in
	// progress; the sweep fails the connection when it passes, which is what
	// keeps a peer that stopped reading from holding a caller past it.
	sending chan struct{}
	batch   frameBatch
	writeBy atomic.Int64
	// readBy is the deadline (unix ns, 0 = none) of the fetch whose data
	// field the read loop is reading; the sweep fails the connection when it
	// passes, as it would have expired the fetch had it still been pending.
	readBy atomic.Int64

	mu       sync.Mutex
	pending  map[uint64]waiter
	err      error
	failOnce sync.Once
}

// waiter is what a pending request ID maps to — who gets the response: a
// blocking round trip's channel, a striped put's (one the put's chunks
// share), or (ch nil) an asynchronous chunk fetch, which is all the state
// such a fetch has: no channel, context or timer.
type waiter struct {
	ch chan<- answer

	sink     core.FetchSink
	buf      []byte // where the response's data field may land
	pool     string
	object   string
	chunk    int
	deadline int64 // unix ns, 0 = none; also in the request frame
}

// answer is what a waiting caller learns of one of its requests from the
// connection it was sent on: the response the read loop read for it, or the
// error the connection failed with.
type answer struct {
	chunk, slot int
	resp        Response
	err         error
}

// of returns w as the waiter of one ref of its batch.
func (w waiter) of(ref core.FetchRef) waiter {
	w.sink, w.buf, w.chunk = ref.Sink, ref.Buf, ref.ChunkIndex
	return w
}

// fail completes an asynchronous fetch with err, worded as FetchChunkV's.
func (w waiter) fail(err error) {
	w.sink.FetchDone(nil, core.StripeInfo{}, fetchError(w.chunk, w.pool, w.object, err))
}

// deliver completes an asynchronous fetch with the chunk a response carries.
func (w waiter) deliver(resp *Response) {
	w.sink.FetchDone(resp.Data, core.StripeInfo{Version: resp.Version, Size: int(resp.Size)}, nil)
}

func (cc *clientConn) broken() bool {
	select {
	case <-cc.done:
		return true
	default:
		return false
	}
}

// fail marks the connection broken and completes every request pending on it
// (abandon): a round trip's or a put's with err, an asynchronous fetch as a
// blocking round trip over another connection when the failure is one a
// round trip would retry.
func (cc *clientConn) fail(err error) {
	cc.failOnce.Do(func() {
		cc.mu.Lock()
		cc.err = err
		pending := cc.pending
		cc.pending = nil
		cc.mu.Unlock()
		close(cc.done)
		_ = cc.conn.Close()
		for _, w := range pending {
			cc.abandon(w, err)
		}
	})
}

// abandon completes w, whose connection failed with err. A round trip or a
// put's chunk gets err on its channel, and its caller decides; a fetch
// continues as a blocking round trip over another connection when a round
// trip would retry err, and fails with err otherwise.
func (cc *clientConn) abandon(w waiter, err error) {
	switch {
	case w.ch != nil:
		w.ch <- answer{chunk: w.chunk, slot: cc.slot, err: err}
	case w.sink == nil:
		// The read loop was reading a response nobody waits for any more.
	case errors.Is(err, errConnBroken):
		cc.client.fallback(w, cc.slot, 1, err)
	default:
		w.fail(err)
	}
}

// roundTrip sends req and waits for its response. It waits for the send side
// no longer than ctx and the connection last; a call that gives up there has
// put nothing on the wire. req.Data is read only during the write below, on
// this goroutine, so the caller has its buffer back whenever roundTrip returns.
func (cc *clientConn) roundTrip(ctx context.Context, req Request) (Response, error) {
	id := cc.client.nextID.Add(1)
	ch := make(chan answer, 1)
	if err := cc.sendRun(ctx, &req, [][]byte{req.Data}, []int{req.Chunk}, id, ch); err != nil {
		return Response{}, err
	}
	select {
	case a := <-ch:
		return a.resp, a.err
	case <-ctx.Done():
		cc.drop(id, 1)
		return Response{}, ctx.Err()
	}
}

// sendRun registers a waiter per element of data, numbered from first and
// answering on ch, and puts their request frames — req's, for chunk
// chunks[i] carrying data[i] — on the wire with a single write from the
// calling goroutine. It waits for the send side no longer than ctx and the
// connection last; a failure there has registered and sent nothing. Once it
// returns nil every request is somebody's to answer on ch: the read loop's
// or fail's.
func (cc *clientConn) sendRun(ctx context.Context, req *Request, data [][]byte, chunks []int, first uint64, ch chan<- answer) error {
	select {
	case cc.sending <- struct{}{}:
	case <-cc.done:
		return cc.brokenErr()
	case <-ctx.Done():
		return ctx.Err()
	}
	// Registered before anything is written, or a response could beat its
	// waiter to the table.
	cc.mu.Lock()
	if cc.pending == nil {
		cc.mu.Unlock()
		<-cc.sending
		return cc.brokenErr()
	}
	for i := range data {
		cc.pending[first+uint64(i)] = waiter{ch: ch, chunk: chunks[i]}
	}
	cc.mu.Unlock()
	for i, d := range data {
		req.ID, req.Chunk, req.Data = first+uint64(i), chunks[i], d
		cc.batch.addRequest(req)
	}
	cc.write(int64(req.Deadline))
	return nil
}

// drop takes the count requests numbered from first out of the pending
// table: their caller has stopped waiting, and the read loop drops their
// responses.
func (cc *clientConn) drop(first uint64, count int) {
	cc.mu.Lock()
	for i := 0; i < count; i++ {
		delete(cc.pending, first+uint64(i))
	}
	cc.mu.Unlock()
}

// write puts the frames gathered in cc.batch on the wire in one write, with
// deadline published for the sweep while it lasts, and gives the send side up.
// A failed write fails the connection, which answers, retries or completes
// whatever was registered on it. The caller holds the send side.
func (cc *clientConn) write(deadline int64) {
	cc.writeBy.Store(deadline)
	err := cc.batch.flush(cc.conn)
	cc.writeBy.Store(0)
	<-cc.sending
	if err != nil {
		cc.fail(fmt.Errorf("%w: %v", errConnBroken, err))
	}
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
	defer cc.client.wg.Done()
	fr := newFrameReader(cc.conn)
	for {
		resp, n, err := fr.responseHeader(cc.client.cfg.MaxFrameSize)
		if err != nil {
			cc.readFailed(err)
			return
		}
		// Taken before the first byte of the data field is read: from here
		// on neither the sweep nor fail can complete this fetch, so the
		// buffer it brought is still its own while the data lands in it.
		cc.mu.Lock()
		w, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		}
		cc.mu.Unlock()
		cc.readBy.Store(w.deadline)
		resp.Data, err = fr.data(n, w.buf)
		cc.readBy.Store(0)
		if err != nil {
			// The taken fetch completes the way fail completed the pending ones.
			cc.readFailed(err)
			cc.abandon(w, cc.brokenErr())
			return
		}
		cc.client.counters.countFrameIn(responsePayloadSize(&resp) + 4)
		switch {
		case !ok:
			// A response for an unknown ID belongs to a round trip that was
			// cancelled or a fetch whose deadline passed; it is dropped.
		case w.ch != nil:
			w.ch <- answer{chunk: w.chunk, slot: cc.slot, resp: resp}
		default:
			cc.client.complete(w, cc.slot, &resp)
		}
	}
}

// readFailed fails the connection after its read loop hit err.
func (cc *clientConn) readFailed(err error) {
	if !isDisconnect(err) {
		cc.client.counters.decodeErrors.Add(1)
	}
	cc.fail(fmt.Errorf("%w: %v", errConnBroken, err))
}
