package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/core"
	"sprout/internal/workload"
)

type status uint8

const (
	stOK status = iota
	stFailed
	stDropped // open loop only: arrived with maxInFlight operations already running
	stWrong   // the bytes read failed the oracle
)

// sample is one operation as the client saw it. Times are nanoseconds since
// the phase started; a closed loop has due == start.
type sample struct {
	due, start, end int64
	write           bool
	traced          bool // spans were recorded for it
	status          status
}

type openOp struct {
	due  time.Duration
	file int32
}

type closedOp struct {
	file  int32
	write bool
}

// closedOpsPerClient is the length of one client's pre-generated operation
// list: more than twice what small-hot gets through in a run. A client that
// reaches the end starts over.
const closedOpsPerClient = 1 << 18

// openSchedule is the whole run's arrivals, made before it starts: one
// Poisson stream per file at its Zipf rate, merged by time.
func openSchedule(seed int64, lambdas []float64, horizon time.Duration) []openOp {
	reqs := workload.Generate(rand.New(rand.NewSource(seed)), lambdas, horizon.Seconds())
	ops := make([]openOp, len(reqs))
	for i, r := range reqs {
		ops[i] = openOp{due: time.Duration(r.Arrival * float64(time.Second)), file: int32(r.FileID)}
	}
	return ops
}

// closedSchedule is one client's operation list. Reads pick any file; a
// write picks within the client's own residue class of file IDs, so every
// file has a single writer and its seq only grows in commit order.
func closedSchedule(seed int64, client int, wl workloadSpec, lambdas []float64) []closedOp {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	picker := workload.NewRatePicker(lambdas)
	ops := make([]closedOp, closedOpsPerClient)
	for i := range ops {
		f := picker.Pick(rng.Float64())
		w := rng.Float64() < wl.writeFrac
		if w {
			if own := f - f%closedClients + client; own < wl.files {
				f = own
			} else {
				w = false
			}
		}
		ops[i] = closedOp{file: int32(f), write: w}
	}
	return ops
}

// phase is one warm-up plus one measured interval of one workload against
// one stack.
type phase struct {
	wl     workloadSpec
	seed   int64
	st     *stack
	or     *oracle
	tr     *tracer // nil in the timed phase
	warmup time.Duration
	timed  time.Duration

	t0   time.Time
	stop atomic.Bool

	// Filled by the monitor goroutine.
	begin, end     snapshot
	goroutinesPeak int
	restore        time.Duration // injection → no degraded object left; 0 if never
	serviceNS      float64       // mean OSD service time per chunk served, set by metrics

	// Filled by the drivers.
	samples []sample
	backlog []int32 // open loop: operations in flight at each dispatch

	errMu      sync.Mutex
	firstWrong error // first read that returned wrong bytes
	firstFail  error // first operation that returned an error
}

func (p *phase) noteWrong(err error) {
	p.errMu.Lock()
	if p.firstWrong == nil {
		p.firstWrong = err
	}
	p.errMu.Unlock()
}

func (p *phase) noteFail(err error) {
	p.errMu.Lock()
	if p.firstFail == nil {
		p.firstFail = err
	}
	p.errMu.Unlock()
}

// run drives the workload through warm-up and the measured interval and
// returns when every operation has ended.
func (p *phase) run(ctx context.Context) error {
	var ops []openOp
	var lists [][]closedOp
	if p.wl.open {
		ops = openSchedule(p.seed, p.st.lambdas, p.warmup+p.timed)
	} else {
		for c := 0; c < closedClients; c++ {
			lists = append(lists, closedSchedule(p.seed, c, p.wl, p.st.lambdas))
		}
	}
	// Settle the heap set-up and the schedule left behind, so the first
	// collection of the run is not theirs.
	runtime.GC()

	p.t0 = time.Now()
	if p.wl.degraded {
		if err := p.st.injectFaults(); err != nil {
			return err
		}
	}
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		p.monitor(ctx)
	}()
	if p.wl.open {
		p.runOpen(ctx, ops)
	} else {
		p.runClosed(ctx, lists)
	}
	// The monitor returns at the end boundary, which the open loop's last
	// arrival can precede by more than its drain takes.
	<-monDone
	return ctx.Err()
}

// monitor takes the counter snapshots at the two boundaries of the measured
// interval and returns after the second. Until then it watches the goroutine
// count and, on degraded-read, how long the pool stays degraded.
func (p *phase) monitor(ctx context.Context) {
	beginT := time.NewTimer(time.Until(p.t0.Add(p.warmup)))
	endT := time.NewTimer(time.Until(p.t0.Add(p.warmup + p.timed)))
	tick := time.NewTicker(50 * time.Millisecond)
	defer beginT.Stop()
	defer endT.Stop()
	defer tick.Stop()
	for {
		select {
		case <-beginT.C:
			p.begin = p.st.snapshot()
		case <-endT.C:
			p.end = p.st.snapshot()
			p.stop.Store(true)
			return
		case <-tick.C:
			p.goroutinesPeak = max(p.goroutinesPeak, runtime.NumGoroutine())
			if p.wl.degraded && p.restore == 0 && len(p.st.pool.DegradedObjects()) == 0 {
				p.restore = time.Since(p.t0)
			}
		case <-ctx.Done():
			return
		}
	}
}

// tracerFor returns the tracer for the i-th operation of a dispatcher or
// client. The traced phase traces every second one, so that the overhead of
// tracing is the difference between operations that met the same queues and
// the same host, not between two processes half a minute apart.
func (p *phase) tracerFor(i int) *tracer {
	if i%2 == 1 {
		return nil
	}
	return p.tr
}

// read performs one verified read, recording spans if tr is not nil, and
// returns the buffer for reuse, the outcome and when the read returned
// (before it was checked).
func (p *phase) read(ctx context.Context, tr *tracer, op uint32, file int, dst []byte) ([]byte, status, time.Time) {
	floor := p.or.floor(file)
	var fetcher core.ChunkFetcher = p.st.fetcher
	var id uint32
	var start int64
	if tr != nil {
		id = tr.begin()
		start = tr.now()
		fetcher = &tracedFetcher{inner: p.st.fetcher, tr: tr, op: op, parent: id}
	}
	got, err := p.st.ctrl.ReadInto(ctx, file, fetcher, dst)
	end := time.Now()
	if tr != nil {
		tr.end(id, span{op: op, name: spanOpRead, start: start, end: tr.at(end), file: int32(file), chunk: -1, node: -1, ok: err == nil})
	}
	if err != nil {
		p.noteFail(fmt.Errorf("op %d, read of file %d: %w", op, file, err))
		return dst, stFailed, end
	}
	if err := p.or.check(file, floor, got, op%fullCheckEvery == 0); err != nil {
		p.noteWrong(fmt.Errorf("op %d, file %d: %w", op, file, err))
		return got, stWrong, end
	}
	return got, stOK, end
}

// write overwrites file with its next seq. buf is the caller's scratch of
// the object's size. It returns the outcome and the times the write itself
// (not the stamping of buf) started and ended.
func (p *phase) write(ctx context.Context, tr *tracer, op uint32, file int, buf []byte) (status, time.Time, time.Time) {
	seq := p.or.beginWrite(file)
	p.or.stamp(buf, file, seq)
	var writer core.ObjectWriter = p.st.writer
	var id uint32
	begin := time.Now()
	if tr != nil {
		id = tr.begin()
		writer = &tracedWriter{inner: p.st.writer, tr: tr, op: op, parent: id}
	}
	err := p.st.ctrl.Write(ctx, file, buf, writer)
	end := time.Now()
	if tr != nil {
		tr.end(id, span{op: op, name: spanOpWrite, start: tr.at(begin), end: tr.at(end), file: int32(file), chunk: -1, node: -1, ok: err == nil})
	}
	if err != nil {
		p.noteFail(fmt.Errorf("op %d, write of file %d: %w", op, file, err))
		return stFailed, begin, end
	}
	p.or.commitWrite(file, seq)
	return stOK, begin, end
}

// runOpen dispatches the schedule: one goroutine sleeps to each due time
// and starts one goroutine per due read. It does not spin (README, traps),
// so a wake-up is about a millisecond late when the process is idle;
// latency is counted from the due time, which includes that.
func (p *phase) runOpen(ctx context.Context, ops []openOp) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p.samples = make([]sample, len(ops))
	p.backlog = make([]int32, len(ops))
	// Free list of read buffers; never holds more than maxInFlight because
	// no more reads than that run at once.
	bufs := make(chan []byte, maxInFlight)
	var inflight atomic.Int32
	var wg sync.WaitGroup
	for i := range ops {
		if ctx.Err() != nil {
			p.samples = p.samples[:i]
			break
		}
		due := ops[i].due
		if d := due - time.Since(p.t0); d > 0 {
			time.Sleep(d)
		}
		s := &p.samples[i]
		s.due, s.start = int64(due), int64(time.Since(p.t0))
		p.backlog[i] = inflight.Load()
		if p.backlog[i] >= maxInFlight {
			s.end, s.status = s.start, stDropped
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			s := &p.samples[i]
			op := uint32(i + 1)
			tr := p.tracerFor(i)
			s.traced = tr != nil
			if tr != nil {
				base := tr.at(p.t0)
				tr.record(span{op: op, name: spanGenWait, start: base + s.due, end: base + s.start, file: ops[i].file, chunk: -1, node: -1, ok: true})
			}
			var buf []byte
			select {
			case buf = <-bufs:
			default:
			}
			var end time.Time
			buf, s.status, end = p.read(ctx, tr, op, int(ops[i].file), buf)
			s.end = int64(end.Sub(p.t0))
			select {
			case bufs <- buf:
			default:
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		// Reads that have not returned by now are cancelled and count as
		// failed.
		cancel()
		<-done
	}
}

// runClosed runs closedClients clients, each issuing its next operation when
// the previous one has returned, until the measured interval ends.
func (p *phase) runClosed(ctx context.Context, lists [][]closedOp) {
	perClient := make([][]sample, len(lists))
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, closedOpsPerClient)
			readBuf := make([]byte, 0, p.wl.size)
			writeBuf := make([]byte, p.wl.size)
			ops := lists[c]
			for i := 0; !p.stop.Load() && ctx.Err() == nil; i++ {
				o := ops[i%len(ops)]
				op := uint32(i*len(lists) + c + 1)
				var s sample
				var begin, end time.Time
				tr := p.tracerFor(i)
				s.traced = tr != nil
				if o.write {
					s.write = true
					s.status, begin, end = p.write(ctx, tr, op, int(o.file), writeBuf)
				} else {
					begin = time.Now()
					readBuf, s.status, end = p.read(ctx, tr, op, int(o.file), readBuf)
				}
				s.start, s.end = int64(begin.Sub(p.t0)), int64(end.Sub(p.t0))
				s.due = s.start
				out = append(out, s)
			}
			perClient[c] = out
		}(c)
	}
	wg.Wait()
	for _, out := range perClient {
		p.samples = append(p.samples, out...)
	}
}
