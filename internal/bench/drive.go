package bench

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/core"
	"sprout/internal/queue"
	"sprout/internal/resilience"
	"sprout/internal/stack"
	"sprout/internal/transport"
	"sprout/internal/workload"
)

// closedLoop is the harness's one load driver: workers goroutines each call
// the op, wait for it, and call it again, drawing op indices from a shared
// budget until it is spent, their own budget is, or the run's context ends.
// A shed op returns at once, so under a shared budget the workers being shed
// spend most of it; a per-worker budget keeps every worker's share of the
// offered load.
type closedLoop struct {
	workers int
	ops     int           // shared op budget; <= 0 for none
	opsEach int           // per-worker op budget; <= 0 for none
	pace    time.Duration // pause after each of a worker's ops
	seed    int64         // worker w draws from rand.NewSource(seed + w)
}

// loopResult is what one run of a closedLoop measured.
type loopResult struct {
	lats    []time.Duration // latencies of the ops that succeeded, sorted
	sheds   int64           // ops refused as load shedding (resilience.IsOverload)
	errs    int64           // every other failed op
	err     error           // the first of those
	elapsed time.Duration
}

// run drives op until a budget is spent or ctx ends; with neither budget
// set it runs until ctx ends. op receives its
// worker's random source and its index in the budget; ctx only stops the
// loop, so an op in flight when it ends completes and is counted.
func (l closedLoop) run(ctx context.Context, op func(r *rand.Rand, i int) error) loopResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(l.seed + int64(w)))
			var lats []time.Duration
			var sheds, errs int64
			var firstErr error
			for n := 0; ctx.Err() == nil && (l.opsEach <= 0 || n < l.opsEach); n++ {
				i := int(next.Add(1)) - 1
				if l.ops > 0 && i >= l.ops {
					break
				}
				opStart := time.Now()
				switch err := op(r, i); {
				case err == nil:
					lats = append(lats, time.Since(opStart))
				case resilience.IsOverload(err):
					sheds++
				default:
					errs++
					if firstErr == nil {
						firstErr = err
					}
				}
				if l.pace > 0 {
					_ = resilience.Sleep(ctx, l.pace) // ends early only when the run does
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.lats = append(res.lats, lats...)
			res.sheds += sheds
			res.errs += errs
			if res.err == nil {
				res.err = firstErr
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.lats, func(i, j int) bool { return res.lats[i] < res.lats[j] })
	return res
}

// opsPerSec is the run's completed-op throughput.
func (r loopResult) opsPerSec() float64 { return float64(len(r.lats)) / r.elapsed.Seconds() }

// pct is the nearest-rank percentile of sorted latencies, in milliseconds
// (0 for none): the p-quantile's index rounded down over len-1 intervals,
// the formula every checked-in baseline was recorded with.
func pct(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))]) / float64(time.Millisecond)
}

// wiredSpec is the stack of the chaos and tenants experiments: 4 to 24
// objects of 16 KiB (enough for two tenants to own two each, few enough to
// bound per-point ingest and probes) at 0.3 ms per chunk, served over
// loopback with one client per tenant; the untenanted chaos experiment
// passes the one tenant "".
func wiredSpec(cfg Config, scfg transport.ServerConfig, ccfg transport.ClientConfig, tenants ...string) stack.Spec {
	return stack.Spec{
		Service: queue.Deterministic{Value: 0.0003},
		Seed:    cfg.Seed,
		Objects: max(4, min(cfg.Files, 24)),
		Size:    16 << 10,
		Listen:  "127.0.0.1:0",
		Server:  scfg,
		Tenants: tenants,
		Client:  ccfg,
	}
}

// zipfReads runs l over Zipf-picked reads of files (every object when nil)
// through ctrl and tenant's fetcher, with the tenant stamped on each read.
func zipfReads(st *stack.Stack, ctrl *core.Controller, l closedLoop, tenant string, files []int) loopResult {
	rates := st.Lambdas
	if files != nil {
		rates = make([]float64, len(files))
		for i, f := range files {
			rates[i] = st.Lambdas[f]
		}
	}
	picker := workload.NewRatePicker(rates)
	ctx := core.WithTenant(context.Background(), tenant)
	return l.run(ctx, func(r *rand.Rand, _ int) error {
		f := picker.Pick(r.Float64())
		if files != nil {
			f = files[f]
		}
		_, err := ctrl.Read(ctx, f, st.Remote[tenant])
		return err
	})
}
