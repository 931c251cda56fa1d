// Package transport is the network data plane of the emulated object store:
// a length-prefixed binary wire protocol with per-request IDs, so many
// requests multiplex over one TCP connection. The server dispatches frames
// to a bounded worker pool and sheds load with an explicit overload response
// when its in-flight limit is reached; the client keeps a connection pool,
// pipelines concurrent requests, demultiplexes responses by ID, honours
// context deadlines/cancellation, and retries idempotent requests once a
// connection breaks.
//
// There is one way in and one way out: a client reads an object chunk by
// chunk (GetChunk) and writes it as a stripe it encoded itself
// (StripedWriter: BeginPut, the n PutChunk frames in one write per
// connection, CommitObject or AbortPut). The server never encodes, gathers,
// or decodes an object.
//
// # Wire format
//
// Every frame is a 4-byte big-endian payload length followed by the payload.
// Request payloads:
//
//	kind(1=request) | id uint64 | op byte | chunk uint32 | version uint64 |
//	deadline uint64 (unix ns, 0 = none) |
//	pool (uint16 len + bytes) | object (uint16 len + bytes) |
//	tenant (uint16 len + bytes) | data (uint32 len + bytes)
//
// Response payloads:
//
//	kind(2=response) | id uint64 | code byte | latency int64 (ns) |
//	version uint64 | size int64 |
//	errmsg (uint16 len + bytes) | names (uint16 count × uint16 len + bytes) |
//	data (uint32 len + bytes)
//
// The version fields carry the stripe version of the ingest plane: requests
// staging or committing a two-phase put name the version they operate on,
// and chunk-read responses report the version (and object size) the served
// chunk belongs to, so clients assembling a stripe from several GetChunk
// calls can detect a concurrent overwrite instead of decoding a
// mixed-version stripe.
//
// The deadline field carries the client's absolute deadline (unix
// nanoseconds) so the server can shed already-expired work — at admission
// and again at dequeue — instead of burning a worker on a response nobody
// is waiting for.
//
// The tenant field names the workload class the request belongs to (empty =
// the default tenant); the server's weighted-fair scheduler routes each
// request to its tenant's queue, so one tenant's burst cannot crowd the
// others out of the worker pool.
//
// Code 0 means success; non-zero codes map back to typed errors on the
// client (objstore.ErrObjectNotFound, objstore.ErrPoolNotFound,
// objstore.ErrChunkMissing, ErrOverloaded, context.DeadlineExceeded) so
// callers can errors.Is them.
//
// # Payloads travel by reference
//
// The format above says which bytes cross the wire, not how they get there.
// Every writer — a client goroutine sending its own requests, the server's
// write loop — gathers its frames into one vector (frameBatch) and flushes it
// with a single writev: headers and data fields shorter than
// byRefMin are encoded into the batch's buffer, a data field of byRefMin
// bytes or more is put in the vector as the caller's slice itself, so the
// only copy of a chunk-sized payload on the way out is the kernel's. On the
// way in, a frame of byRefMin bytes or more is read from the connection
// straight into the buffer it ends up in (frameReader): on the server a fresh
// one, which the decoded Request.Data aliases and which becomes the stored
// chunk (objstore's chunk-ownership rule); on the client, which reads a
// response header first, the buffer its fetch brought (core.FetchRef.Buf).
// The bytes on the wire are the same either way.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/resilience"
)

// Op identifies a request type.
type Op byte

// Supported operations. Reads are chunk by chunk: GetChunk serves one coded
// chunk. Writes are whole stripes encoded by the client: BeginPut opens a
// two-phase put and returns the stripe version, PutChunk stages one locally
// encoded chunk under it, CommitObject atomically flips the object to the
// staged version, and AbortPut discards the staged chunks. PoolInfo reports
// a pool's (n, k) so clients can build the matching erasure coder; Pools
// lists the pool names.
//
// Op numbers 1, 2, 4, 6, 7, 8 and 9 are reserved for retired ops. No op may
// reuse them, so an old peer's frame is never mistaken for another op; a
// server answers one with codeUnknownOp.
const (
	OpGetChunk     Op = 3
	OpPools        Op = 5
	OpBeginPut     Op = 10
	OpPutChunk     Op = 11
	OpCommitObject Op = 12
	OpAbortPut     Op = 13
	OpPoolInfo     Op = 14
	// Controller-to-controller ops (served when ServerConfig.Peer is set).
	// CtrlRead/CtrlWrite route a file read/write to the shard controller
	// owning the file (Chunk carries the file ID); Invalidate fans a
	// committed write's versioned invalidation out to peer shards (Version
	// carries the stripe version, Data an 8-byte payload size); ShardInfo
	// exchanges ring membership (Response.Names holds id/address pairs,
	// Response.Version the ring version).
	OpCtrlRead   Op = 15
	OpCtrlWrite  Op = 16
	OpInvalidate Op = 17
	OpShardInfo  Op = 18
)

func (o Op) String() string {
	switch o {
	case OpGetChunk:
		return "get-chunk"
	case OpPools:
		return "pools"
	case OpBeginPut:
		return "begin-put"
	case OpPutChunk:
		return "put-chunk"
	case OpCommitObject:
		return "commit-object"
	case OpAbortPut:
		return "abort-put"
	case OpPoolInfo:
		return "pool-info"
	case OpCtrlRead:
		return "ctrl-read"
	case OpCtrlWrite:
		return "ctrl-write"
	case OpInvalidate:
		return "invalidate"
	case OpShardInfo:
		return "shard-info"
	default:
		return fmt.Sprintf("op(%d)", byte(o))
	}
}

// Frame kinds.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
)

// Response status codes.
const (
	codeOK             byte = 0
	codeError          byte = 1 // untyped server-side error
	codeObjectNotFound byte = 2
	codePoolNotFound   byte = 3
	codeChunkMissing   byte = 4
	codeUnknownOp      byte = 5
	codeOverloaded     byte = 6
	codeOSDDown        byte = 7
	codeNoStagedPut    byte = 8
	// codeDeadlineExceeded marks a request the server shed because its wire
	// deadline had already passed when it was admitted or dequeued.
	codeDeadlineExceeded byte = 9
)

// DefaultMaxFrameSize bounds a frame payload unless overridden in the
// client/server configuration.
const DefaultMaxFrameSize = 64 << 20

// maxString16 is the longest string a uint16-length field can carry.
const maxString16 = 1<<16 - 1

// requestOverhead is the fixed encoding cost of a request frame beyond the
// pool, object, tenant, and data bytes (kind, id, op, chunk, version,
// deadline, four length fields).
const requestOverhead = 1 + 8 + 1 + 4 + 8 + 8 + 2 + 2 + 2 + 4

// responseOverhead is the fixed encoding cost of a response frame beyond
// the error message, names, and data bytes (kind, id, code, latency,
// version, size, three length fields).
const responseOverhead = 1 + 8 + 1 + 8 + 8 + 8 + 2 + 2 + 4

// ErrRequestTooLarge is returned before sending a request whose frame would
// exceed the configured MaxFrameSize, or whose pool/object name exceeds the
// wire format's 64 KiB string limit; the request is rejected locally
// instead of poisoning connections the server would kill.
var ErrRequestTooLarge = errors.New("transport: request exceeds frame limits")

// validateRequest rejects requests the wire format cannot carry.
func validateRequest(req *Request, maxFrame int) error {
	if len(req.Pool) > maxString16 || len(req.Object) > maxString16 || len(req.Tenant) > maxString16 {
		return fmt.Errorf("%w: name longer than %d bytes", ErrRequestTooLarge, maxString16)
	}
	if size := requestPayloadSize(req); size > maxFrame {
		return fmt.Errorf("%w: frame would be %d bytes, limit %d", ErrRequestTooLarge, size, maxFrame)
	}
	return nil
}

// requestPayloadSize is the length of req's encoded frame payload — the
// value of the frame's length prefix.
func requestPayloadSize(req *Request) int {
	return requestOverhead + len(req.Pool) + len(req.Object) + len(req.Tenant) + len(req.Data)
}

// responsePayloadSize is requestPayloadSize for a response.
func responsePayloadSize(resp *Response) int {
	size := responseOverhead + len(resp.Err) + len(resp.Data)
	for _, n := range resp.Names {
		size += 2 + len(n)
	}
	return size
}

// responseFits reports whether resp can be encoded within maxFrame; callers
// replace oversized responses with an error response rather than emitting a
// frame the peer will reject.
func responseFits(resp *Response, maxFrame int) bool {
	if len(resp.Names) > maxString16 {
		return false
	}
	for _, n := range resp.Names {
		if len(n) > maxString16 {
			return false
		}
	}
	return responsePayloadSize(resp) <= maxFrame
}

// overloadError is ErrOverloaded's concrete type: it unwraps to
// resilience.ErrOverload so the whole stack classifies server load
// shedding as overload (retryable under the budget, counted by breakers,
// never a reason to mark a node down) without the transport's error string
// changing.
type overloadError struct{}

func (overloadError) Error() string { return "transport: server overloaded" }
func (overloadError) Unwrap() error { return resilience.ErrOverload }

// ErrOverloaded is returned when the server sheds a request because its
// max-in-flight limit is reached. The client retries these with jittered
// exponential backoff while its retry budget lasts; it wraps
// resilience.ErrOverload, so it never counts against membership.
var ErrOverloaded error = overloadError{}

// errConnBroken marks a request that failed because the underlying
// connection died before a response arrived; the client retries these.
var errConnBroken = errors.New("transport: connection broken")

// Request is one client request. Version names the stripe version a staged
// put operates on (BeginPut allocates it; PutChunk, CommitObject, and
// AbortPut carry it back).
// Deadline is the client's absolute deadline in unix nanoseconds (zero
// means none); the server sheds the request with codeDeadlineExceeded if it
// is already past when the request is admitted or dequeued.
// Tenant names the workload class the request belongs to (empty = default);
// the server's weighted-fair scheduler queues it per tenant.
type Request struct {
	ID       uint64
	Op       Op
	Chunk    int
	Version  uint64
	Deadline uint64
	Pool     string
	Object   string
	Tenant   string
	Data     []byte
}

// Expired reports whether the request carries a wire deadline that has
// already passed at the given time.
func (r *Request) Expired(now time.Time) bool {
	return r.Deadline != 0 && uint64(now.UnixNano()) >= r.Deadline
}

// Response is one server reply. Version and Size report the stripe version
// and object size a served chunk belongs to (GetChunk), and the allocated
// version for BeginPut.
type Response struct {
	ID      uint64
	Code    byte
	Version uint64
	Size    int64
	Err     string
	Names   []string
	Data    []byte
	Latency time.Duration
}

// OK reports whether the response carries a success code.
func (r *Response) OK() bool { return r.Code == codeOK }

// codeForError maps a server-side error to a wire status code.
func codeForError(err error) byte {
	switch {
	case errors.Is(err, objstore.ErrObjectNotFound):
		return codeObjectNotFound
	case errors.Is(err, objstore.ErrPoolNotFound):
		return codePoolNotFound
	case errors.Is(err, objstore.ErrChunkMissing):
		return codeChunkMissing
	case errors.Is(err, objstore.ErrOSDDown):
		return codeOSDDown
	case errors.Is(err, objstore.ErrNoStagedPut):
		return codeNoStagedPut
	default:
		return codeError
	}
}

// wireError carries the server's error message while unwrapping to the
// sentinel matching its wire code, so errors.Is works across the network.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// errorFromResponse reconstructs a typed error from a non-OK response.
func errorFromResponse(resp *Response) error {
	msg := resp.Err
	if msg == "" {
		msg = "transport: remote error"
	}
	switch resp.Code {
	case codeObjectNotFound:
		return &wireError{msg: msg, sentinel: objstore.ErrObjectNotFound}
	case codePoolNotFound:
		return &wireError{msg: msg, sentinel: objstore.ErrPoolNotFound}
	case codeChunkMissing:
		return &wireError{msg: msg, sentinel: objstore.ErrChunkMissing}
	case codeOSDDown:
		return &wireError{msg: msg, sentinel: objstore.ErrOSDDown}
	case codeNoStagedPut:
		return &wireError{msg: msg, sentinel: objstore.ErrNoStagedPut}
	case codeOverloaded:
		return &wireError{msg: msg, sentinel: ErrOverloaded}
	case codeDeadlineExceeded:
		return &wireError{msg: msg, sentinel: context.DeadlineExceeded}
	default:
		return errors.New(msg)
	}
}

// byRefMin is the size from which bytes stop being worth a copy: a data
// field this large is sent by reference instead of being copied into the
// batch buffer, and a received frame this large is read past the read buffer
// (which is this size, so at most byRefMin bytes of any frame are ever
// copied twice on the way in). Below it the memcpy is cheaper than two more
// vector segments on the way out and a read syscall of its own on the way
// in; CHANGES.md (PR 18) has the sweep it was chosen from.
const byRefMin = 16 << 10

// batchBufSize is the capacity a batch's encode buffer starts with: enough
// for a run of small frames to leave in one syscall.
const batchBufSize = 64 << 10

// appendRequestHeader encodes req's frame up to and including the length of
// its data field; the frame is complete once len(req.Data) bytes follow.
func appendRequestHeader(buf []byte, req *Request) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(requestPayloadSize(req)))
	buf = append(buf, frameRequest)
	buf = binary.BigEndian.AppendUint64(buf, req.ID)
	buf = append(buf, byte(req.Op))
	buf = binary.BigEndian.AppendUint32(buf, uint32(req.Chunk))
	buf = binary.BigEndian.AppendUint64(buf, req.Version)
	buf = binary.BigEndian.AppendUint64(buf, req.Deadline)
	buf = appendString16(buf, req.Pool)
	buf = appendString16(buf, req.Object)
	buf = appendString16(buf, req.Tenant)
	return binary.BigEndian.AppendUint32(buf, uint32(len(req.Data)))
}

// appendResponseHeader encodes resp's frame up to and including the length
// of its data field. Names and Data must have been checked with
// responseFits; Err is clamped here so arbitrarily long error messages
// cannot desync the stream.
func appendResponseHeader(buf []byte, resp *Response) []byte {
	if len(resp.Err) > maxString16 {
		resp.Err = resp.Err[:maxString16]
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(responsePayloadSize(resp)))
	buf = append(buf, frameResponse)
	buf = binary.BigEndian.AppendUint64(buf, resp.ID)
	buf = append(buf, resp.Code)
	buf = binary.BigEndian.AppendUint64(buf, uint64(resp.Latency))
	buf = binary.BigEndian.AppendUint64(buf, resp.Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(resp.Size))
	buf = appendString16(buf, resp.Err)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(resp.Names)))
	for _, n := range resp.Names {
		buf = appendString16(buf, n)
	}
	return binary.BigEndian.AppendUint32(buf, uint32(len(resp.Data)))
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// frameBatch gathers the frames of one write and puts them on the wire with a
// single writev. enc holds everything that is encoded or copied
// — headers and data fields below byRefMin — contiguously in wire order; vec
// lists the batch's segments in wire order: runs of enc interleaved with the
// data fields that travel by reference. A referenced payload must stay
// unchanged until flush returns. The batch is reused across flushes, so a
// connection in steady use allocates nothing per frame.
type frameBatch struct {
	enc []byte
	cut int // enc[:cut] is already listed in vec
	vec net.Buffers
	// out is the slice header net.Buffers.WriteTo consumes; it lives here
	// rather than on flush's stack so that taking its address allocates
	// nothing.
	out net.Buffers
	ctr *transportCounters
}

// full reports whether a frame whose encoded part is n bytes should wait for
// the next flush: the batch already holds something and the frame would make
// enc outgrow its buffer. (A single frame larger than the buffer just grows
// it.)
func (b *frameBatch) full(n int) bool {
	return len(b.enc) > 0 && len(b.enc)+n > cap(b.enc)
}

func (b *frameBatch) addRequest(req *Request) {
	start := len(b.enc)
	b.enc = appendRequestHeader(b.enc, req)
	b.addData(start, req.Data)
}

func (b *frameBatch) addResponse(resp *Response) {
	start := len(b.enc)
	b.enc = appendResponseHeader(b.enc, resp)
	b.addData(start, resp.Data)
}

// addData completes the frame whose header starts at enc[start:] with its
// data field and counts the frame.
func (b *frameBatch) addData(start int, data []byte) {
	if len(data) < byRefMin {
		b.enc = append(b.enc, data...)
		b.ctr.countFrameOut(len(b.enc)-start, 0)
		return
	}
	// If a later append moves enc, the segment cut here keeps pointing at
	// the old backing array, whose bytes up to this point are final.
	b.vec = append(b.vec, b.enc[b.cut:], data)
	b.cut = len(b.enc)
	b.ctr.countFrameOut(len(b.enc)-start+len(data), len(data))
}

// flush writes the gathered frames to w — one writev when w is a TCP
// connection — and empties the batch, dropping its payload references.
func (b *frameBatch) flush(w io.Writer) error {
	if b.cut < len(b.enc) {
		b.vec = append(b.vec, b.enc[b.cut:])
	}
	b.out = b.vec
	_, err := b.out.WriteTo(w)
	// WriteTo niled the segments it wrote; after an error some remain.
	clear(b.vec)
	b.vec, b.out = b.vec[:0], nil
	b.enc, b.cut = b.enc[:0], 0
	return err
}

// encodedSize is the part of a frame a batch encodes or copies into its
// buffer, given the frame's payload size and its data field: everything,
// length prefix included, but a by-reference data field.
func encodedSize(payloadSize int, data []byte) int {
	if len(data) >= byRefMin {
		payloadSize -= len(data)
	}
	return 4 + payloadSize
}

// frameReader reads frames off one connection. Frame headers and small
// frames come through a read buffer of byRefMin bytes, so a run of small
// frames shares one read syscall; what a frame of byRefMin bytes or more
// still has outstanding once the buffer is drained is read from the
// connection straight into the frame's own buffer instead of bouncing
// through the read buffer.
// A response is read header first (responseHeader, then data), so that the
// caller knows whose it is before choosing where its data field lands.
type frameReader struct {
	src  io.Reader
	br   *bufio.Reader
	left int // bytes of the current frame responseHeader has not read yet
}

func newFrameReader(src io.Reader) *frameReader {
	return &frameReader{src: src, br: bufio.NewReaderSize(src, byRefMin)}
}

// begin reads the next frame's length prefix, enforcing the size limit, and
// returns the payload size.
func (fr *frameReader) begin(maxSize int) (int, error) {
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size < 1 || size > maxSize {
		return 0, fmt.Errorf("transport: frame size %d outside (0, %d]", size, maxSize)
	}
	_, _ = fr.br.Discard(4) // the four bytes were just peeked: cannot fail
	fr.left = size
	return size, nil
}

// fill reads the next len(p) bytes of the stream into p.
func (fr *frameReader) fill(p []byte) error {
	buffered := len(p)
	if len(p) >= byRefMin && fr.br.Buffered() < len(p) {
		buffered = fr.br.Buffered()
	}
	_, err := io.ReadFull(fr.br, p[:buffered])
	if err == nil && buffered < len(p) {
		_, err = io.ReadFull(fr.src, p[buffered:])
	}
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// next reads one frame payload, enforcing the size limit. The returned
// buffer is freshly allocated and never reused: decoded requests alias it.
func (fr *frameReader) next(maxSize int) ([]byte, error) {
	size, err := fr.begin(maxSize)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, size)
	return payload, fr.fill(payload)
}

// take returns the next n bytes of the current frame: a view of the read
// buffer, valid until fr is next used, or a fresh buffer when n is larger.
func (fr *frameReader) take(n int) ([]byte, error) {
	if n < 0 || n > fr.left {
		return nil, errTruncated
	}
	fr.left -= n
	if n > fr.br.Size() {
		b := make([]byte, n)
		return b, fr.fill(b)
	}
	b, err := fr.br.Peek(n)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, _ = fr.br.Discard(n)
	return b, nil
}

var errTruncated = errors.New("transport: truncated frame")

// reader reads the fields of a frame: from buf, a whole payload, or, when fr
// is set, from the rest of fr's current frame.
type reader struct {
	buf []byte
	off int
	fr  *frameReader
}

func (r *reader) bytes(n int) ([]byte, error) {
	if r.fr != nil {
		return r.fr.take(n)
	}
	if n < 0 || r.off+n > len(r.buf) {
		return nil, errTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// string16 reads a string field; when its bytes spell same, it returns same
// instead of allocating a copy.
func (r *reader) string16(same string) (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	if string(b) == same {
		return same, nil
	}
	return string(b), nil
}

func (r *reader) blob32() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	return r.bytes(int(n))
}

// decodeRequest parses a request frame payload. The returned request's Data
// aliases the payload buffer. Its names are prev's strings wherever the bytes
// are the same (prev may be nil), so a run of requests to one object — the k
// fetches of a read — decodes the object's name once.
func decodeRequest(payload []byte, prev *Request) (Request, error) {
	r := reader{buf: payload}
	var req Request
	if prev == nil {
		prev = &req
	}
	fixed, err := r.bytes(1 + 8 + 1 + 4 + 8 + 8) // kind … deadline
	if err != nil {
		return req, err
	}
	if fixed[0] != frameRequest {
		return req, fmt.Errorf("transport: expected request frame, got kind %d", fixed[0])
	}
	req.ID, req.Op = binary.BigEndian.Uint64(fixed[1:]), Op(fixed[9])
	req.Chunk = int(int32(binary.BigEndian.Uint32(fixed[10:])))
	req.Version, req.Deadline = binary.BigEndian.Uint64(fixed[14:]), binary.BigEndian.Uint64(fixed[22:])
	if req.Pool, err = r.string16(prev.Pool); err != nil {
		return req, err
	}
	if req.Object, err = r.string16(prev.Object); err != nil {
		return req, err
	}
	if req.Tenant, err = r.string16(prev.Tenant); err != nil {
		return req, err
	}
	if req.Data, err = r.blob32(); err != nil {
		return req, err
	}
	if r.off != len(r.buf) {
		return req, fmt.Errorf("transport: %d trailing bytes in request frame", len(r.buf)-r.off)
	}
	return req, nil
}

// responseHeader reads the next frame, a response, up to its data field, and
// returns the response without Data and the data field's length, which data
// reads next.
func (fr *frameReader) responseHeader(maxSize int) (Response, int, error) {
	var resp Response
	_, err := fr.begin(maxSize)
	var fixed []byte
	if err == nil {
		fixed, err = fr.take(1 + 8 + 1 + 8 + 8 + 8) // kind … size
	}
	if err != nil {
		return resp, 0, err
	}
	if fixed[0] != frameResponse {
		return resp, 0, fmt.Errorf("transport: expected response frame, got kind %d", fixed[0])
	}
	resp.ID, resp.Code = binary.BigEndian.Uint64(fixed[1:]), fixed[9]
	resp.Latency = time.Duration(binary.BigEndian.Uint64(fixed[10:]))
	resp.Version, resp.Size = binary.BigEndian.Uint64(fixed[18:]), int64(binary.BigEndian.Uint64(fixed[26:]))
	r := reader{fr: fr}
	if resp.Err, err = r.string16(""); err != nil {
		return resp, 0, err
	}
	count, err := r.u16()
	if err != nil {
		return resp, 0, err
	}
	if count > 0 {
		resp.Names = make([]string, count)
		for i := range resp.Names {
			if resp.Names[i], err = r.string16(""); err != nil {
				return resp, 0, err
			}
		}
	}
	n, err := r.u32()
	switch {
	case err != nil:
		return resp, 0, err
	case int(n) > fr.left:
		return resp, 0, errTruncated
	case int(n) < fr.left:
		return resp, 0, fmt.Errorf("transport: %d trailing bytes in response frame", fr.left-int(n))
	}
	return resp, int(n), nil
}

// data reads the n-byte data field responseHeader announced into buf when it
// has the capacity, into a fresh buffer otherwise.
func (fr *frameReader) data(n int, buf []byte) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	return buf, fr.fill(buf)
}
