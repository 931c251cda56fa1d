// Command benchmark is the repository's yardstick: it wires the real stack
// in one process over loopback TCP, drives four named workloads from a
// seeded, pre-generated schedule, verifies every byte it reads and prints
// end-to-end and per-layer metrics by name. See README.md.
//
//	benchmark --workload W --seed S --seconds T --trace 0|1   one phase; last stdout line is the result
//	benchmark [-runs N] [-seed S]                             every workload, timed then traced, one process each
//	benchmark -compare a.json b.json                          A/B verdict per (workload, end-to-end metric)
//	benchmark -ladder zipf-read                               latency at 300..900 reads/s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"sprout/internal/core"
	"sprout/internal/transport"
)

const (
	defaultSeconds = 24 // run_seconds in BENCHMARK.json
	// The timed phase sets up until it has done so timedSetUps times or has
	// spent setUpBudget on it, and reports the median as setup_s; the last
	// stack is the one measured. A set-up of milliseconds is noisy and cheap
	// to repeat; one of seconds is neither.
	timedSetUps = 5
	setUpBudget = 2500 * time.Millisecond
	// A run whose generator was later than this at its 99th percentile, or
	// dropped an arrival, is printed as disturbed. Calm runs on the
	// builder's box sit at 1.5 to 2.2 ms.
	disturbedLateMS = 3
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a phase prints, with exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type phaseConfig struct {
	wl     workloadSpec
	seed   int64
	warmup time.Duration
	timed  time.Duration
	trace  bool
	setUps int
	outdir string // where the traced phase writes trace-<workload>.jsonl; empty: nowhere
}

// phaseOutput is everything one phase measured.
type phaseOutput struct {
	values    map[string]float64
	windows   []window
	attempted int
	failed    int
	wrong     error  // first wrong-bytes read
	firstFail error  // first operation that failed otherwise
	spans     []span // traced phase only
}

func runPhase(ctx context.Context, cfg phaseConfig) (*phaseOutput, error) {
	var st *stack
	var or *oracle
	var setUpSeconds []float64
	var spent time.Duration
	for i := 0; i < cfg.setUps && (i == 0 || spent < setUpBudget); i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC() // the next set-up should not pay for the last one's garbage
		}
		or = newOracle(cfg.seed, cfg.wl.files, cfg.wl.size)
		begin := time.Now()
		var err error
		if st, err = setUp(ctx, cfg.wl, cfg.seed, or); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(begin)
		setUpSeconds = append(setUpSeconds, time.Since(begin).Seconds())
	}
	defer st.close()

	p := &phase{wl: cfg.wl, seed: cfg.seed, st: st, or: or, warmup: cfg.warmup, timed: cfg.timed}
	if cfg.trace {
		p.tr = newTracer(maxSpans)
	}
	if err := p.run(ctx); err != nil {
		return nil, err
	}
	st.ctrl.WaitFills()
	if p.tr != nil {
		p.tr.quiesce(2 * time.Second)
	}

	out := &phaseOutput{values: map[string]float64{}, wrong: p.firstWrong, firstFail: p.firstFail}
	out.values["setup_s"] = median(setUpSeconds)
	out.windows, out.attempted, out.failed = p.metrics(out.values)
	out.values["arena.outstanding_leases"] = float64(outstandingLeases())
	if p.tr != nil {
		p.traceMetrics(out.values)
		if err := p.probes(ctx, out.values); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		out.spans = p.tr.recorded()
		if cfg.outdir != "" {
			if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
				return nil, err
			}
			if err := p.tr.writeJSONL(filepath.Join(cfg.outdir, "trace-"+cfg.wl.name+".jsonl")); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// outstandingLeases counts the leases still out once the stack is quiet. A
// server write loop releases its frame after the flush the client has
// already read, so the count is given a moment to settle.
func outstandingLeases() int64 {
	var n int64
	for deadline := time.Now().Add(200 * time.Millisecond); ; time.Sleep(time.Millisecond) {
		n = transport.FrameArena().Outstanding() + core.FillArena().Outstanding() + core.ReadScratchPool().Outstanding()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
	}
}

// report selects the metrics the phase is to print: the end-to-end ones
// after a timed phase, the per-layer ones after a traced phase. A per-layer
// metric the workload does not exercise is measured as 0; one that was not
// measured at all is an error, so that a misspelt or forgotten name cannot
// print as 0.
func (o *phaseOutput) report(trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := result{Correct: o.wrong == nil, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s is declared in spec.go but was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

func (o *phaseOutput) printTable(cfg phaseConfig, r result) {
	mode := "timed (tracing off)"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("== %s, seed %d, %s, %.3gs warm-up + %.3gs measured in %d windows ==\n",
		cfg.wl.name, cfg.seed, mode, cfg.warmup.Seconds(), cfg.timed.Seconds(), len(o.windows))
	fmt.Printf("%-8s %7s %7s %7s %12s %12s %12s %12s %12s %12s\n", "window", "reads", "writes", "failed", "read_mean_ms", "read_p50_ms", "read_p95_ms", "read_p99_ms", "write_p50_ms", "ops_s")
	for i, w := range o.windows {
		fmt.Printf("%-8d %7d %7d %7d %12.4f %12.4f %12.4f %12.4f %12.4f %12.1f\n", i, w.Reads, w.Writes, w.Failed, w.ReadMean, w.ReadP50, w.ReadP95, w.ReadP99, w.WriteP50, w.OpsPerSec)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	if o.values["gen.late_p99_ms"] > disturbedLateMS || o.values["gen.dropped"] > 0 {
		fmt.Printf("DISTURBED: generator ran late (p99 %.2f ms, max %.2f ms, %d dropped); treat this run's latencies with care\n",
			o.values["gen.late_p99_ms"], o.values["gen.late_max_ms"], int(o.values["gen.dropped"]))
	}
	if o.firstFail != nil {
		fmt.Printf("first failure: %v\n", o.firstFail)
	}
	if o.wrong != nil {
		fmt.Printf("WRONG BYTES: %v\n", o.wrong)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errWrongBytes = errors.New("a read returned wrong bytes")

func run() error {
	var (
		name    = flag.String("workload", "", "run one phase of this workload; empty runs every workload, timed then traced")
		seed    = flag.Int64("seed", 1, "seed of the generator: arrivals, file picks, read/write choice, payload bytes, OSD service times")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured interval")
		trace   = flag.Int("trace", 0, "0: timed phase, prints the end-to-end metrics; 1: traced phase and probes, prints the per-layer metrics")
		outdir  = flag.String("outdir", "benchmark/out", "directory for result.json and trace-<workload>.jsonl")
		runs    = flag.Int("runs", 1, "without -workload: how many times to run the whole set")
		compare = flag.Bool("compare", false, "compare the result files a.json b.json given as arguments")
		ladder  = flag.String("ladder", "", "print latency against offered load for this open-loop workload")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if runtime.NumCPU() < benchProcs {
		return fmt.Errorf("need %d CPUs, have %d", benchProcs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(benchProcs)
	if *seconds <= 0 || *runs < 1 {
		return errors.New("-seconds must be positive and -runs at least 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ladder != "" {
		return runLadder(ctx, *ladder, *seed)
	}
	if *name == "" {
		return runAll(ctx, *seed, *seconds, *runs, *outdir)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", "))
	}
	cfg := phaseConfig{
		wl: wl, seed: *seed, warmup: wl.warmup, trace: *trace != 0, setUps: 1, outdir: *outdir,
		timed: time.Duration(*seconds * float64(time.Second)),
	}
	if !cfg.trace {
		cfg.setUps = timedSetUps
	}
	out, err := runPhase(ctx, cfg)
	if err != nil {
		return err
	}
	r, err := out.report(cfg.trace)
	if err != nil {
		return err
	}
	out.printTable(cfg, r)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return errWrongBytes
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
