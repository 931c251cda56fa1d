package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sprout/internal/arena"
	"sprout/internal/objstore"
	"sprout/internal/resilience"
	"sprout/internal/ring"
	"sprout/internal/tick"
	"sprout/internal/wfq"
)

// frameArena recycles the per-batch response-encode buffers: a write loop
// leases one when a batch starts and releases it after the flush, so idle
// connections pin no encode memory. Every lease is batchBufSize — headers
// and small payloads only; chunk-sized payloads go out by reference.
var frameArena = arena.New("transport_frame_encode")

// FrameArena exposes the response-encode arena for metrics export and
// leak-counting tests.
func FrameArena() *arena.Arena { return frameArena }

// ServerConfig tunes the server's admission control and framing.
type ServerConfig struct {
	// Workers is the size of the handler pool; every request executes on one
	// of these goroutines, never on an unbounded per-request goroutine.
	// Default: 4 × GOMAXPROCS, at least 8.
	Workers int
	// MaxInFlight bounds each tenant's request queue feeding the shared
	// worker pool. A frame arriving while its tenant's queue is full is
	// answered immediately with an overload response instead of being
	// buffered — so one tenant's burst overflows only its own queue.
	// Default: 256.
	MaxInFlight int
	// TenantWeights maps tenant names (Request.Tenant) to their share of
	// the worker pool under the deficit-round-robin dispatcher. Tenants not
	// listed — including the unnamed default tenant — get weight 1. Nil
	// means every tenant is served equally.
	TenantWeights map[string]int
	// MaxFrameSize bounds accepted frame payloads. Default:
	// DefaultMaxFrameSize.
	MaxFrameSize int
	// StagedPutTTL, when positive, starts a janitor that aborts staged puts
	// older than the TTL in every pool, so clients that die between BeginPut
	// and CommitObject cannot leak staged chunks forever. Zero disables the
	// janitor (default).
	StagedPutTTL time.Duration
	// Chaos, when set, injects per-OSD latency, errors, stalls, and
	// partitions into chunk-addressed requests, and optionally hangs newly
	// accepted connections — the fault-injection harness behind the chaos
	// e2e scenarios and sproutbench -exp chaos. Nil disables injection.
	Chaos *Chaos
	// Logf, when set, receives connection-level protocol errors (malformed
	// frames, unexpected disconnects) that would otherwise only show up in
	// the DecodeErrors counter.
	Logf func(format string, args ...any)
	// Peer, when set, serves the controller-to-controller op set (CtrlRead,
	// CtrlWrite, Invalidate, ShardInfo) — the endpoint one shard of the
	// sharded metadata plane exposes to the router and its peer shards. A
	// server may carry both a cluster and a Peer, or only one of the two.
	Peer PeerOps
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
		if c.Workers < 8 {
			c.Workers = 8
		}
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MaxFrameSize <= 0 {
		c.MaxFrameSize = DefaultMaxFrameSize
	}
	return c
}

// Server serves an object-store cluster over the multiplexed binary
// protocol.
type Server struct {
	cluster *objstore.Cluster
	cfg     ServerConfig

	ctx    context.Context
	cancel context.CancelFunc
	work   *wfq.Sched[task]

	// sched runs the staged-put janitor; nil when StagedPutTTL is unset.
	sched *tick.Scheduler

	counters transportCounters

	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	closed   bool
	started  bool

	connWG   sync.WaitGroup // accept loop + per-connection reader/writer
	workerWG sync.WaitGroup
}

type task struct {
	sc  *serverConn
	req Request
}

// NewServer wraps a cluster for serving with default admission control.
func NewServer(cluster *objstore.Cluster) *Server {
	return NewServerWithConfig(cluster, ServerConfig{})
}

// NewServerWithConfig wraps a cluster for serving with explicit limits. A
// nil cluster builds a peer-only endpoint: it serves the controller op set
// through ServerConfig.Peer and rejects storage ops.
func NewServerWithConfig(cluster *objstore.Cluster, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cluster: cluster,
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		work: wfq.New[task](wfq.Config{
			QueueCap: cfg.MaxInFlight,
			Weights:  cfg.TenantWeights,
		}),
		conns: make(map[*serverConn]struct{}),
	}
}

// Stats returns a snapshot of the server's transport counters.
func (s *Server) Stats() TransportStats { return s.counters.snapshot() }

// WorkQueueStats returns the telemetry counters of the request queues
// feeding the worker pool, aggregated across tenants.
func (s *Server) WorkQueueStats() ring.Stats { return s.work.Stats() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines until
// Close is called.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("transport: server closed")
	}
	s.listener = ln
	if !s.started {
		s.started = true
		for i := 0; i < s.cfg.Workers; i++ {
			s.workerWG.Add(1)
			go s.worker()
		}
		if s.cfg.StagedPutTTL > 0 && s.cluster != nil {
			s.startStagedJanitor()
		}
	}
	s.mu.Unlock()
	s.connWG.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.connWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if s.cfg.Chaos.hangConn() {
			// Accept-then-hang: the connection stays open but is never
			// serviced, so the peer's requests stall until its deadline.
			s.connWG.Add(1)
			go func() {
				defer s.connWG.Done()
				<-s.ctx.Done()
				_ = conn.Close()
			}()
			continue
		}
		// The response queue gets a floor above MaxInFlight so small
		// admission limits don't make transient full-queue blips look like
		// stalled consumers.
		outCap := s.cfg.MaxInFlight
		if outCap < 64 {
			outCap = 64
		}
		sc := &serverConn{
			srv:  s,
			conn: conn,
			out:  make(chan Response, outCap),
			done: make(chan struct{}),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.counters.connsOpened.Add(1)
		s.connWG.Add(2)
		go sc.readLoop()
		go sc.writeLoop()
	}
}

// worker executes requests in weighted-fair order across the per-tenant
// queues, parking on the scheduler while they are empty. A nil stop
// channel is deliberate: shutdown is signalled by closing the scheduler,
// which lets workers drain every request that was admitted before the
// close.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		t, ok := s.work.PopWait(nil)
		if !ok {
			return
		}
		// A request whose deadline expired while it sat in the queue is dead
		// weight: nobody is waiting for the answer, so shed it before paying
		// for the handler.
		if t.req.Expired(time.Now()) {
			s.counters.deadlineRejections.Add(1)
			t.sc.send(Response{ID: t.req.ID, Code: codeDeadlineExceeded, Err: context.DeadlineExceeded.Error()})
			continue
		}
		if s.chaosIntercept(&t) {
			continue
		}
		resp := s.handle(s.ctx, &t.req)
		if !responseFits(&resp, s.cfg.MaxFrameSize) {
			// Sending a frame the client would reject kills the session;
			// degrade to an in-band error instead.
			resp = Response{
				ID:      resp.ID,
				Code:    codeError,
				Err:     fmt.Sprintf("transport: response exceeds %d-byte frame limit", s.cfg.MaxFrameSize),
				Latency: resp.Latency,
			}
		}
		t.sc.send(resp)
	}
}

// chaosIntercept applies the configured chaos rules to a dequeued request.
// It reports true when the request was consumed by the harness — dropped,
// stalled past usefulness, or answered with an injected fault — and the
// worker should move on.
func (s *Server) chaosIntercept(t *task) bool {
	ch := s.cfg.Chaos
	if ch == nil {
		return false
	}
	osd, ok := s.chaosTarget(&t.req)
	if !ok {
		return false
	}
	delay, verdict := ch.decide(osd)
	if delay > 0 {
		_ = resilience.Sleep(s.ctx, delay)
	}
	switch verdict {
	case chaosInjectError:
		t.sc.send(Response{ID: t.req.ID, Code: codeError, Err: ErrInjected.Error()})
		return true
	case chaosDropRequest:
		return true
	case chaosDropReply:
		// The request half arrived and executes — its side effects are real —
		// but the reply never makes it back across the partition.
		_ = s.handle(s.ctx, &t.req)
		return true
	default:
		return false
	}
}

// chaosTarget resolves which OSD a chunk-addressed request lands on, using
// the same placement (overrides included) the handler will use. Requests
// that are not chunk-addressed, or whose object is unknown, are not chaos
// targets.
func (s *Server) chaosTarget(req *Request) (int, bool) {
	switch req.Op {
	case OpGetChunk, OpPutChunk:
	default:
		return 0, false
	}
	pool, err := s.cluster.Pool(req.Pool)
	if err != nil {
		return 0, false
	}
	osd, err := pool.ChunkOSD(req.Object, req.Chunk)
	if err != nil {
		return 0, false
	}
	return osd, true
}

func (s *Server) handle(ctx context.Context, req *Request) Response {
	start := time.Now()
	fail := func(err error) Response {
		return Response{ID: req.ID, Code: codeForError(err), Err: err.Error(), Latency: time.Since(start)}
	}
	ok := func(resp Response) Response {
		resp.ID = req.ID
		resp.Latency = time.Since(start)
		return resp
	}
	switch req.Op {
	case OpCtrlRead, OpCtrlWrite, OpInvalidate, OpShardInfo:
		return s.handlePeer(ctx, req, fail, ok)
	}
	if s.cluster == nil {
		// A peer-only shard endpoint serves just the controller op set.
		return fail(errors.New("transport: no object store attached to this endpoint"))
	}
	switch req.Op {
	case OpGetChunk:
		pool, err := s.cluster.Pool(req.Pool)
		if err != nil {
			return fail(err)
		}
		data, version, size, err := pool.GetChunkV(ctx, req.Object, req.Chunk)
		if err != nil {
			return fail(err)
		}
		return ok(Response{Data: data, Version: version, Size: int64(size)})
	case OpBeginPut:
		pool, err := s.cluster.Pool(req.Pool)
		if err != nil {
			return fail(err)
		}
		version, err := pool.BeginPut(req.Object)
		if err != nil {
			return fail(err)
		}
		return ok(Response{Version: version})
	case OpPutChunk:
		pool, err := s.cluster.Pool(req.Pool)
		if err != nil {
			return fail(err)
		}
		if err := pool.StageChunk(ctx, req.Object, req.Version, req.Chunk, req.Data); err != nil {
			return fail(err)
		}
		return ok(Response{Version: req.Version})
	case OpCommitObject:
		pool, err := s.cluster.Pool(req.Pool)
		if err != nil {
			return fail(err)
		}
		if len(req.Data) != 8 {
			return fail(fmt.Errorf("%w: commit payload must be the 8-byte object size", objstore.ErrStagedStripe))
		}
		size := int64(binary.BigEndian.Uint64(req.Data))
		if err := pool.CommitObject(req.Object, req.Version, int(size)); err != nil {
			return fail(err)
		}
		return ok(Response{Version: req.Version})
	case OpAbortPut:
		pool, err := s.cluster.Pool(req.Pool)
		if err != nil {
			return fail(err)
		}
		if err := pool.AbortPut(req.Object, req.Version); err != nil {
			return fail(err)
		}
		return ok(Response{})
	case OpPoolInfo:
		pool, err := s.cluster.Pool(req.Pool)
		if err != nil {
			return fail(err)
		}
		data, err := json.Marshal(struct{ N, K int }{pool.N, pool.K})
		if err != nil {
			return fail(err)
		}
		return ok(Response{Data: data})
	case OpPools:
		return ok(Response{Names: s.cluster.PoolNames()})
	default:
		return Response{
			ID:      req.ID,
			Code:    codeUnknownOp,
			Err:     fmt.Sprintf("transport: unknown op %q", req.Op),
			Latency: time.Since(start),
		}
	}
}

// Close stops the listener, closes active connections, cancels in-flight
// handlers, and waits for all server goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.connWG.Wait()
		s.workerWG.Wait()
		return nil
	}
	s.closed = true
	ln := s.listener
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	started := s.started
	s.mu.Unlock()

	s.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, sc := range conns {
		sc.teardown()
	}
	s.connWG.Wait()
	// All readers have exited, so nothing can enqueue work anymore. Closing
	// the scheduler wakes parked workers; they drain whatever was admitted
	// and then exit.
	if started {
		s.work.Close()
	}
	s.workerWG.Wait()
	if s.sched != nil {
		s.sched.Close()
	}
	return err
}

// serverConn is one accepted connection: a read loop decoding request
// frames and a write loop that gathers responses into batches, one writev
// each.
type serverConn struct {
	srv       *Server
	conn      net.Conn
	out       chan Response
	done      chan struct{}
	closeOnce sync.Once
}

func (sc *serverConn) teardown() {
	sc.closeOnce.Do(func() {
		close(sc.done)
		_ = sc.conn.Close()
	})
	sc.srv.mu.Lock()
	delete(sc.srv.conns, sc)
	sc.srv.mu.Unlock()
}

// requestScratchSize is the largest request frame a connection reads into
// its scratch instead of a buffer of the frame's own.
const requestScratchSize = 512

// writeStallTimeout bounds how long a worker will wait on a connection
// whose response queue is full; a peer that stalls its reads this long is
// disconnected rather than allowed to wedge the worker pool.
const writeStallTimeout = 10 * time.Second

// send queues a response, dropping it if the connection is already gone.
// If the queue stays full for writeStallTimeout — the peer has stopped
// draining its socket — the connection is torn down so one slow consumer
// cannot block the shared workers indefinitely.
func (sc *serverConn) send(resp Response) {
	select {
	case sc.out <- resp:
		return
	case <-sc.done:
		return
	default:
	}
	t := time.NewTimer(writeStallTimeout)
	defer t.Stop()
	select {
	case sc.out <- resp:
	case <-sc.done:
	case <-t.C:
		sc.srv.logf("transport: %s: slow consumer, dropping connection", sc.conn.RemoteAddr())
		sc.teardown()
	}
}

func (sc *serverConn) readLoop() {
	defer sc.srv.connWG.Done()
	defer sc.teardown()
	fr := newFrameReader(sc.conn)
	// Small frames (a chunk fetch's) land in scratch; last holds the names
	// of the previous request for the next one to reuse.
	var scratch [requestScratchSize]byte
	var last Request
	for {
		size, err := fr.begin(sc.srv.cfg.MaxFrameSize)
		var payload []byte
		if err == nil {
			if size <= len(scratch) {
				payload = scratch[:size]
			} else {
				payload = make([]byte, size)
			}
			err = fr.fill(payload)
		}
		if err != nil {
			if !isDisconnect(err) {
				sc.srv.counters.decodeErrors.Add(1)
				sc.srv.logf("transport: %s: reading frame: %v", sc.conn.RemoteAddr(), err)
			}
			return
		}
		sc.srv.counters.countFrameIn(len(payload) + 4)
		req, err := decodeRequest(payload, &last)
		if err != nil {
			// A malformed frame means the stream can no longer be trusted;
			// account for it, surface it, and end the session.
			sc.srv.counters.decodeErrors.Add(1)
			sc.srv.logf("transport: %s: malformed request: %v", sc.conn.RemoteAddr(), err)
			return
		}
		last.Pool, last.Object, last.Tenant = req.Pool, req.Object, req.Tenant
		if size <= len(scratch) && req.Data != nil {
			// The next frame overwrites the scratch, and a staged chunk's data
			// must be its own (objstore's chunk-ownership rule).
			req.Data = append([]byte(nil), req.Data...)
		}
		if req.Expired(time.Now()) {
			// The client's deadline already passed in flight; shed before
			// queueing rather than spend queue space and a worker on it.
			sc.srv.counters.deadlineRejections.Add(1)
			sc.send(Response{ID: req.ID, Code: codeDeadlineExceeded, Err: context.DeadlineExceeded.Error()})
			continue
		}
		if sc.srv.work.Push(req.Tenant, task{sc: sc, req: req}) {
			sc.srv.counters.requests.Add(1)
		} else {
			// The tenant's queue is full: shed load with an explicit overload
			// response instead of buffering unboundedly. Other tenants'
			// queues are unaffected.
			sc.srv.counters.overloadRejections.Add(1)
			sc.send(Response{ID: req.ID, Code: codeOverloaded, Err: ErrOverloaded.Error()})
		}
	}
}

func (sc *serverConn) writeLoop() {
	defer sc.srv.connWG.Done()
	batch := frameBatch{ctr: &sc.srv.counters}
	for {
		select {
		case resp := <-sc.out:
			if !sc.writeBatch(&batch, resp) {
				sc.teardown()
				return
			}
		case <-sc.done:
			return
		}
	}
}

// writeBatch leases an encode buffer from the frame arena, gathers resp
// into the batch, then keeps draining queued responses — yielding once when
// the queue looks empty so responses finishing close together coalesce —
// and flushes once per batch (or whenever the buffer is full), amortising
// syscalls under load. Response payloads sent by reference are stored
// chunks or buffers made for this response, so nothing changes them before
// the flush. The lease is released after the flush (on error paths too), so
// encode memory is pinned only while a batch is actually in flight.
func (sc *serverConn) writeBatch(b *frameBatch, resp Response) bool {
	lease := frameArena.Lease(batchBufSize)
	b.enc = lease.B[:0]
	defer func() {
		b.enc = nil
		lease.Release()
	}()
	yielded := false
	for {
		if b.full(encodedSize(responsePayloadSize(&resp), resp.Data)) && b.flush(sc.conn) != nil {
			return false
		}
		b.addResponse(&resp)
		select {
		case resp = <-sc.out:
			yielded = false
			continue
		default:
		}
		if !yielded {
			yielded = true
			runtime.Gosched()
			select {
			case resp = <-sc.out:
				continue
			default:
			}
		}
		return b.flush(sc.conn) == nil
	}
}

// isDisconnect reports whether err is an ordinary connection end rather
// than a protocol violation.
func isDisconnect(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET)
}

// startStagedJanitor registers the periodic staged-put sweep: staged puts
// that outlived StagedPutTTL are aborted in every pool — a client that died
// between BeginPut and CommitObject must not leak staged chunks on the OSDs
// forever. The sweep runs on a private scheduler the server owns.
func (s *Server) startStagedJanitor() {
	interval := s.cfg.StagedPutTTL / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	s.sched = tick.New()
	s.sched.Register(interval, func(time.Time) {
		for _, name := range s.cluster.PoolNames() {
			pool, err := s.cluster.Pool(name)
			if err != nil {
				continue
			}
			if aborted := pool.AbortStaleStaged(s.cfg.StagedPutTTL); aborted > 0 {
				s.logf("transport: aborted %d stale staged puts in pool %q", aborted, name)
			}
		}
	})
}
