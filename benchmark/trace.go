package main

import (
	"bufio"
	"context"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"sprout/internal/core"
	"sprout/internal/transport"
)

// Span names. Probe spans are registered after these as
// "probe.<layer>.<call>".
const (
	spanGenWait = iota
	spanOpRead
	spanOpWrite
	spanFetch
	spanWrite
)

// maxSpans bounds the preallocated span slice (40 B each). small-hot makes
// about 60k spans a second; anything beyond the bound is counted, not kept.
const maxSpans = 1 << 21

// span is one fixed-size trace record. Times are nanoseconds since the
// tracer's epoch. parent is the id of the span that caused this one, 0 for a
// root; the spans of one operation share op.
type span struct {
	op, parent uint32
	start, end int64
	file       int32
	chunk      int16
	node       int16
	name       uint8
	ok         bool
}

// tracer appends spans to a preallocated slice without locks. A nil tracer
// records nothing, which is how the timed phase runs.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Uint32
	open    atomic.Int32 // spans begun and not yet ended
	dropped atomic.Int64

	names []string // probes add theirs after the run, from one goroutine
}

func newTracer(capacity int) *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, capacity),
		names: []string{"gen.wait", "op.read", "op.write", "transport.fetch", "transport.write"},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// begin reserves a span and returns its id, so that children can name their
// parent before it ends. 0 means the slice is full.
func (t *tracer) begin() uint32 {
	id := t.n.Add(1)
	if int(id) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.open.Add(1)
	return id
}

func (t *tracer) end(id uint32, s span) {
	if id != 0 {
		t.spans[id-1] = s
		t.open.Add(-1)
	}
}

// quiesce waits until every begun span has ended: a hedged read returns
// while its losing fetch is still in flight. It gives up after wait.
func (t *tracer) quiesce(wait time.Duration) {
	for deadline := time.Now().Add(wait); t.open.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// record is begin and end in one, for spans without children.
func (t *tracer) record(s span) { t.end(t.begin(), s) }

func (t *tracer) nameID(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

// recorded returns the spans that were kept; one that never ended has end 0.
func (t *tracer) recorded() []span {
	n := min(int(t.n.Load()), len(t.spans))
	return t.spans[:n]
}

// tracedFetcher times every chunk fetch of one operation from outside the
// transport. It is built per operation, so the parent needs no context key.
type tracedFetcher struct {
	inner  *transport.RemoteFetcher
	tr     *tracer
	op     uint32
	parent uint32
}

var _ core.VersionedChunkFetcher = (*tracedFetcher)(nil)

func (f *tracedFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := f.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	return data, err
}

func (f *tracedFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, core.StripeInfo, error) {
	id := f.tr.begin()
	start := f.tr.now()
	data, info, err := f.inner.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	f.tr.end(id, span{
		op: f.op, parent: f.parent, name: spanFetch, start: start, end: f.tr.now(),
		file: int32(fileID), chunk: int16(chunkIndex), node: int16(nodeID), ok: err == nil,
	})
	return data, info, err
}

// tracedWriter times the storage write of one Controller.Write.
type tracedWriter struct {
	inner  *transport.StripedWriter
	tr     *tracer
	op     uint32
	parent uint32
}

var _ core.DataChunkWriter = (*tracedWriter)(nil)

func (w *tracedWriter) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	id := w.tr.begin()
	start := w.tr.now()
	v, err := w.inner.WriteObject(ctx, fileID, data)
	w.done(id, start, fileID, err)
	return v, err
}

func (w *tracedWriter) WriteDataChunks(ctx context.Context, fileID int, dataChunks [][]byte, size int) (uint64, error) {
	id := w.tr.begin()
	start := w.tr.now()
	v, err := w.inner.WriteDataChunks(ctx, fileID, dataChunks, size)
	w.done(id, start, fileID, err)
	return v, err
}

func (w *tracedWriter) done(id uint32, start int64, fileID int, err error) {
	w.tr.end(id, span{
		op: w.op, parent: w.parent, name: spanWrite, start: start, end: w.tr.now(),
		file: int32(fileID), chunk: -1, node: -1, ok: err == nil,
	})
}

// selfTimes returns, for every ended span named parent, its duration minus
// the part of that interval its child spans cover, in nanoseconds. Children
// overlap (fetches run in parallel) and may outlive the parent (a hedged
// read returns while the losing fetch is still in flight), so the children
// are merged and clipped rather than summed.
func selfTimes(spans []span, parent uint8) []int64 {
	// Counting sort of child indices by parent id.
	offsets := make([]uint32, len(spans)+2)
	for i := range spans {
		if p := spans[i].parent; p != 0 && int(p) <= len(spans) {
			offsets[p+1]++
		}
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	children := make([]uint32, offsets[len(offsets)-1])
	fill := append([]uint32(nil), offsets...)
	for i := range spans {
		if p := spans[i].parent; p != 0 && int(p) <= len(spans) {
			children[fill[p]] = uint32(i)
			fill[p]++
		}
	}

	var out []int64
	var kids []span
	for i := range spans {
		s := &spans[i]
		if s.name != parent || s.end == 0 {
			continue
		}
		id := uint32(i + 1)
		kids = kids[:0]
		for _, c := range children[offsets[id]:offsets[id+1]] {
			kids = append(kids, spans[c])
		}
		out = append(out, (s.end-s.start)-covered(kids, s.start, s.end))
	}
	return out
}

// covered is the length of the union of the spans' intervals inside [lo, hi].
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	var total int64
	edge := lo
	for _, k := range kids {
		s, e := max(k.start, edge), min(k.end, hi)
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// writeJSONL writes one span per line as
// {op, span, parent, name, start_ns, end_ns, file, chunk, node, ok}.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range t.recorded() {
		if s.end == 0 {
			continue
		}
		line = append(line[:0], `{"op":`...)
		line = strconv.AppendUint(line, uint64(s.op), 10)
		line = append(line, `,"span":`...)
		line = strconv.AppendInt(line, int64(i+1), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, uint64(s.parent), 10)
		line = append(line, `,"name":"`...)
		line = append(line, t.names[s.name]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"file":`...)
		line = strconv.AppendInt(line, int64(s.file), 10)
		line = append(line, `,"chunk":`...)
		line = strconv.AppendInt(line, int64(s.chunk), 10)
		line = append(line, `,"node":`...)
		line = strconv.AppendInt(line, int64(s.node), 10)
		line = append(line, `,"ok":`...)
		line = strconv.AppendBool(line, s.ok)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			_ = f.Close() // the write error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
