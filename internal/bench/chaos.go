package bench

import (
	"context"
	"fmt"
	"time"

	"sprout/internal/core"
	"sprout/internal/resilience"
	"sprout/internal/stack"
	"sprout/internal/transport"
)

// ChaosResult measures the full stack (controller → transport → chaos →
// cluster) under one fault scenario with the resilience layer on or off.
type ChaosResult struct {
	Scenario   string // "slow+flaky" or "overload"
	Resilience string // "off" or "on"

	Ops          int   // successful reads
	Sheds        int64 // reads rejected with ErrSaturated / overload (expected under pressure)
	Errors       int64 // any other read error (should be 0)
	OpsPerSec    float64
	P50ms        float64
	P99ms        float64
	HealthyP99ms float64 // same stack and load before faults were injected

	Failovers int64   // controller fetch failovers during the faulted window
	Demotions int64   // breaker demotions (resilience on only)
	Hedges    int64   // hedged fetches launched
	RetryAmp  float64 // wire requests / first-attempt requests
	Overloads int64   // server-side overload rejections
}

// ChaosResilience A/Bs the resilience plane on the full stack: a slow-node +
// flaky-node mix and a 2× overload surge, each run with breakers, admission
// control, and the retry budget disabled and then enabled. Hedging is active
// in both arms — it predates the resilience layer — so the deltas isolate
// what breakers, brownout, and budgeted backoff add on top.
func ChaosResilience(cfg Config) ([]ChaosResult, error) {
	cfg = cfg.withDefaults()
	var out []ChaosResult
	for _, scenario := range []string{"slow+flaky", "overload"} {
		for _, resilient := range []bool{false, true} {
			res, err := chaosPoint(cfg, scenario, resilient)
			if err != nil {
				return nil, fmt.Errorf("bench: chaos %s/resilience=%v: %w", scenario, resilient, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// hotOSDs finds OSDs that actually take fetch traffic under the current
// plan, by cycling a harmless 1µs latency rule across the cluster — the
// plan concentrates fetches on a subset of OSDs and the cache serves the
// rest, so faulting an arbitrary OSD may perturb nothing.
func hotOSDs(st *stack.Stack, ctrl *core.Controller, chaos *transport.Chaos, want int) ([]int, error) {
	ctx := context.Background()
	var hot []int
	for osd := 0; osd < len(st.Cluster.OSDs()) && len(hot) < want; osd++ {
		before := chaos.Stats().DelaysInjected
		chaos.SetRule(osd, transport.ChaosRule{Latency: time.Microsecond})
		for f := range st.Lambdas {
			if _, err := ctrl.Read(ctx, f, st.Remote[""]); err != nil {
				chaos.ClearRule(osd)
				return nil, err
			}
		}
		chaos.ClearRule(osd)
		if chaos.Stats().DelaysInjected > before {
			hot = append(hot, osd)
		}
	}
	if len(hot) < want {
		return nil, fmt.Errorf("found only %d of %d OSDs taking fetch traffic", len(hot), want)
	}
	return hot, nil
}

func chaosPoint(cfg Config, scenario string, resilient bool) (ChaosResult, error) {
	chaos := transport.NewChaos(cfg.Seed + 3)
	scfg := transport.ServerConfig{Chaos: chaos}
	ccfg := transport.ClientConfig{Conns: 3, Retries: 4}
	serve := core.ServeOptions{HedgeDelay: 12 * time.Millisecond, HedgeExtra: 2}
	readers, opsEach := 8, 150
	if scenario == "overload" {
		// A deliberately tiny server driven at roughly 2× its capacity.
		scfg.Workers = 2
		scfg.MaxInFlight = 8
		ccfg.Retries = 6
		readers, opsEach = 16, 40
	}
	if resilient {
		// Over the transport a fetch that loses to the hedge completes and
		// reports its real latency; HedgeDelay > LatencyThreshold matters
		// only for fetchers adapted from a blocking FetchChunk, whose hedge
		// losers are cancelled and register as slow only when overdue.
		// OpenFor stays short: the initial fault burst queues the shared
		// worker pool and can transiently trip breakers on perfectly healthy
		// nodes, and those must recover quickly via half-open probes or the
		// healthy pool shrinks below k and reads are forced back onto the
		// slow node. The genuinely bad node re-fails every probe, so the
		// exponential re-open keeps it parked near its cap regardless.
		// LatencyThreshold must beat the injected 30ms fault with a wide
		// margin over benign scheduling noise: the whole emulated cluster
		// shares the host's cores, so healthy sub-ms fetches routinely
		// observe multi-ms scheduler delays that must not trip breakers.
		serve.Breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
			ErrorThreshold:   3,
			LatencyThreshold: 10 * time.Millisecond,
			OpenFor:          250 * time.Millisecond,
		})
		if scenario == "overload" {
			serve.Admission = &core.AdmissionConfig{MaxInFlight: 8}
		}
	} else {
		ccfg.NoRetryBudget = true
	}

	ctx := context.Background()
	st, err := stack.New(ctx, wiredSpec(cfg, scfg, ccfg, ""))
	if err != nil {
		return ChaosResult{}, err
	}
	defer st.Close()
	ctrl, err := st.Controller(ctx, 2*len(st.Lambdas), serve, cfg.Seed)
	if err != nil {
		return ChaosResult{}, err
	}

	// Healthy baseline over the same stack before any fault is injected.
	// slow+flaky compares like-for-like at the measurement concurrency;
	// the overload point's baseline stays light so it measures the server's
	// unsaturated peak rather than the surge itself.
	baseReaders := readers
	if scenario == "overload" {
		baseReaders = 2
	}
	load := func(readers, opsEach int) loopResult {
		return zipfReads(st, ctrl, closedLoop{workers: readers, opsEach: opsEach, seed: cfg.Seed + 200}, "", nil)
	}
	healthy := load(baseReaders, 40)
	if healthy.errs > 0 {
		return ChaosResult{}, fmt.Errorf("%d read errors on the healthy baseline: %w", healthy.errs, healthy.err)
	}

	switch scenario {
	case "slow+flaky":
		// One hot OSD at ~10× the healthy read latency, another failing 20%
		// of its requests (the acceptance mix).
		hot, err := hotOSDs(st, ctrl, chaos, 2)
		if err != nil {
			return ChaosResult{}, err
		}
		chaos.SetRule(hot[0], transport.ChaosRule{Latency: 30 * time.Millisecond})
		chaos.SetRule(hot[1], transport.ChaosRule{ErrorRate: 0.2})
	case "overload":
		// No injected faults: the surge concurrency below is the fault.
	}

	// Unmeasured warmup under the injected faults: the A/B compares steady
	// state, not the breakers' few-read learning window (the off arm has no
	// state to learn, so warming both arms equally biases nothing). The
	// pause in the middle lets breakers mis-tripped during the initial
	// burst expire and re-close via probes before measurement starts.
	load(readers, 10)
	time.Sleep(400 * time.Millisecond)
	load(readers, 5)

	statsBefore := ctrl.Stats()
	csBefore := st.Remote[""].Client.Stats()
	overloadsBefore := st.Server.Stats().OverloadRejections
	res := load(readers, opsEach)
	stats := ctrl.Stats()
	cs := st.Remote[""].Client.Stats()

	requests := cs.Requests - csBefore.Requests
	retries := cs.Retries - csBefore.Retries
	amp := 1.0
	if first := requests - retries; first > 0 {
		amp = float64(requests) / float64(first)
	}
	return ChaosResult{
		Scenario:     scenario,
		Resilience:   map[bool]string{false: "off", true: "on"}[resilient],
		Ops:          len(res.lats),
		Sheds:        res.sheds,
		Errors:       res.errs,
		OpsPerSec:    res.opsPerSec(),
		P50ms:        pct(res.lats, 0.50),
		P99ms:        pct(res.lats, 0.99),
		HealthyP99ms: pct(healthy.lats, 0.99),
		Failovers:    stats.FetchFailovers - statsBefore.FetchFailovers,
		Demotions:    stats.BreakerDemotions - statsBefore.BreakerDemotions,
		Hedges:       stats.HedgesLaunched - statsBefore.HedgesLaunched,
		RetryAmp:     amp,
		Overloads:    st.Server.Stats().OverloadRejections - overloadsBefore,
	}, nil
}

// ChaosTable renders ChaosResilience results with the faulted-over-healthy
// p99 inflation per arm.
func ChaosTable(results []ChaosResult) *Table {
	t := &Table{
		Title:   "resilience plane A/B under chaos: breakers + admission + retry budget off vs on",
		Headers: []string{"scenario", "resilience", "ops", "sheds", "errors", "ops/s", "p50 ms", "p99 ms", "p99 vs healthy", "failovers", "demotions", "hedges", "retry amp", "overloads"},
		Notes: []string{
			"slow+flaky: one hot OSD at +30ms latency, another failing 20% of requests; hedging active in both arms",
			"overload: 16 readers against a 2-worker server (~2x capacity); sheds are intentional rejections, errors are not",
			"retry amp = wire requests / first-attempt requests; the retry budget holds it near 1x under overload",
		},
	}
	for _, r := range results {
		rel := "-"
		if r.HealthyP99ms > 0 {
			rel = fmt.Sprintf("%.2fx", r.P99ms/r.HealthyP99ms)
		}
		t.AddRow(
			r.Scenario,
			r.Resilience,
			itoa(r.Ops),
			i64toa(r.Sheds),
			i64toa(r.Errors),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			f2(r.P50ms),
			f2(r.P99ms),
			rel,
			i64toa(r.Failovers),
			i64toa(r.Demotions),
			i64toa(r.Hedges),
			f3(r.RetryAmp),
			i64toa(r.Overloads),
		)
	}
	// Gate on the resilience-on arm, against its own stack: under slow+flaky
	// chaos its p99 stays near the p99 the same stack showed healthy (the
	// off arm sits at 2-3x) with zero hard errors; under overload, bounded
	// retry amplification and zero hard errors. The p99 win over the off arm
	// is reported but not gated: it moves whenever the off arm does, and
	// hedging and in-flight ranking — active in both arms — keep improving it.
	cell := func(scenario, arm string) *ChaosResult {
		for i := range results {
			if results[i].Scenario == scenario && results[i].Resilience == arm {
				return &results[i]
			}
		}
		return nil
	}
	if on := cell("slow+flaky", "on"); on != nil {
		if on.HealthyP99ms > 0 {
			// Both p99s are of a few hundred reads, so their ratio is noisy:
			// a hundred runs read 0.4-2.1 (median 1.2), and one in twenty
			// far above (a host stall trips healthy breakers). +100 % of the
			// checked-in 1.23 separates the two and stays near the off arm's
			// median of 2.3.
			t.AddMetric("slowflaky_p99_vs_healthy_on", on.P99ms/on.HealthyP99ms, "ratio", false, 1.0)
		}
		t.AddMetric("slowflaky_hard_errors_on", float64(on.Errors), "errors", false, 0)
		if off := cell("slow+flaky", "off"); off != nil && on.P99ms > 0 {
			t.AddMetric("slowflaky_p99_win_on_vs_off", off.P99ms/on.P99ms, "ratio", true, -1)
		}
	}
	if on := cell("overload", "on"); on != nil {
		t.AddMetric("overload_retry_amp_on", on.RetryAmp, "ratio", false, 0)
		t.AddMetric("overload_hard_errors_on", float64(on.Errors), "errors", false, 0)
	}
	return t
}
