package bench

import (
	"context"
	"fmt"
	"time"

	"sprout/internal/core"
	"sprout/internal/stack"
	"sprout/internal/transport"
)

// TenantResult measures one arm of the multi-tenant QoS experiment: gold and
// bronze tenants sharing one stack, with bronze at its fair load or surging
// to 4x it.
type TenantResult struct {
	Arm string // "fair" or "surge"

	GoldOps     int
	BronzeOps   int
	GoldP50ms   float64
	GoldP99ms   float64
	BronzeP99ms float64
	// GoldSheds/BronzeSheds are reads rejected under brownout, per tenant;
	// the SLO ladder should put (almost) all of them on bronze.
	GoldSheds   int64
	BronzeSheds int64
	// Errors are hard failures — anything that is not a deliberate
	// shed/overload rejection. Should be zero.
	Errors    int64
	OpsPerSec float64
	// PriorityHedges counts gold reads that kept their hedge timer through
	// brownout level 1.
	PriorityHedges int64
}

// tenantFiles splits the object space: gold owns the first half (the hot
// head of the Zipf curve), bronze the rest.
func tenantFiles(objects int) (gold, bronze []int) {
	for f := 0; f < objects; f++ {
		if f < objects/2 {
			gold = append(gold, f)
		} else {
			bronze = append(bronze, f)
		}
	}
	return gold, bronze
}

// tenantPoint runs one arm on a fresh stack: gold at its fixed load, bronze
// at bronzeReaders, both driving the stack concurrently through their own
// wire clients.
func tenantPoint(cfg Config, arm string, bronzeReaders int) (TenantResult, error) {
	ctx := context.Background()
	st, err := stack.New(ctx, wiredSpec(cfg,
		transport.ServerConfig{TenantWeights: map[string]int{"gold": 4, "bronze": 1}},
		transport.ClientConfig{Conns: 3, Retries: 4}, "gold", "bronze"))
	if err != nil {
		return TenantResult{}, err
	}
	defer st.Close()
	goldFiles, bronzeFiles := tenantFiles(len(st.Lambdas))
	ctrl, err := st.Controller(ctx, 2*len(st.Lambdas), core.ServeOptions{
		HedgeDelay: 12 * time.Millisecond,
		HedgeExtra: 1,
		Admission:  &core.AdmissionConfig{MaxInFlight: 12},
		Tenants: []core.TenantPolicy{
			{Name: "gold", Class: core.ClassGold, Weight: 4, Files: goldFiles},
			{Name: "bronze", Class: core.ClassBronze, Weight: 1, Files: bronzeFiles},
		},
	}, cfg.Seed)
	if err != nil {
		return TenantResult{}, err
	}

	// Every reader of either tenant makes opsEach reads, shed or not.
	const goldReaders, opsEach = 4, 120
	drive := func(opsEach int) (gold, bronze loopResult) {
		done := make(chan loopResult, 1)
		go func() {
			done <- zipfReads(st, ctrl, closedLoop{workers: bronzeReaders, opsEach: opsEach, seed: cfg.Seed + 500}, "bronze", bronzeFiles)
		}()
		gold = zipfReads(st, ctrl, closedLoop{workers: goldReaders, opsEach: opsEach, seed: cfg.Seed + 500}, "gold", goldFiles)
		return gold, <-done
	}

	// Unmeasured warmup settles the cache fills and the admission gate.
	drive(15)

	before := ctrl.Stats()
	tsBefore := ctrl.TenantStats()
	start := time.Now()
	gold, bronze := drive(opsEach)
	elapsed := time.Since(start)
	stats := ctrl.Stats()
	ts := ctrl.TenantStats()

	return TenantResult{
		Arm:            arm,
		GoldOps:        len(gold.lats),
		BronzeOps:      len(bronze.lats),
		GoldP50ms:      pct(gold.lats, 0.50),
		GoldP99ms:      pct(gold.lats, 0.99),
		BronzeP99ms:    pct(bronze.lats, 0.99),
		GoldSheds:      ts["gold"].Sheds - tsBefore["gold"].Sheds,
		BronzeSheds:    ts["bronze"].Sheds - tsBefore["bronze"].Sheds,
		Errors:         gold.errs + bronze.errs,
		OpsPerSec:      float64(len(gold.lats)+len(bronze.lats)) / elapsed.Seconds(),
		PriorityHedges: stats.PriorityHedges - before.PriorityHedges,
	}, nil
}

// TenantQoS is the multi-tenant isolation experiment: a gold and a bronze
// tenant share one stack end to end — wire frames carry the tenant, the
// server queues requests under deficit round-robin, the controller applies
// the SLO ladder, and the cache budget is split by weight. The fair arm runs
// both tenants at their fair load; the surge arm drives bronze at 4x while
// gold's load is unchanged. Isolation holds if gold's p99 barely moves while
// bronze absorbs the shedding.
func TenantQoS(cfg Config) ([]TenantResult, error) {
	cfg = cfg.withDefaults()
	var out []TenantResult
	for _, arm := range []struct {
		name          string
		bronzeReaders int
	}{
		{"fair", 4},
		{"surge", 16}, // 4x bronze's fair concurrency
	} {
		res, err := tenantPoint(cfg, arm.name, arm.bronzeReaders)
		if err != nil {
			return nil, fmt.Errorf("bench: tenants %s arm: %w", arm.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// TenantTable renders the QoS A/B and wires the isolation gates: gold's p99
// under the bronze surge vs the fair arm, and the shed split.
func TenantTable(results []TenantResult) *Table {
	t := &Table{
		Title:   "multi-tenant QoS: bronze surging to 4x fair load vs gold's SLO",
		Headers: []string{"arm", "gold ops", "bronze ops", "gold p50 ms", "gold p99 ms", "bronze p99 ms", "gold sheds", "bronze sheds", "errors", "ops/s", "priority hedges"},
		Notes: []string{
			"fair: gold and bronze each at 4 readers; surge: bronze at 16 readers (4x), gold unchanged",
			"tenancy is end-to-end: wire frames carry the tenant, the server runs deficit round-robin, the controller sheds by SLO class",
			"isolation target: surge moves gold p99 by <= 1.5x while bronze absorbs >= 95% of the shedding",
		},
	}
	var fair, surge *TenantResult
	for i := range results {
		r := &results[i]
		t.AddRow(
			r.Arm,
			itoa(r.GoldOps),
			itoa(r.BronzeOps),
			f2(r.GoldP50ms),
			f2(r.GoldP99ms),
			f2(r.BronzeP99ms),
			i64toa(r.GoldSheds),
			i64toa(r.BronzeSheds),
			i64toa(r.Errors),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			i64toa(r.PriorityHedges),
		)
		switch r.Arm {
		case "fair":
			fair = r
		case "surge":
			surge = r
		}
	}
	if fair != nil && surge != nil && fair.GoldP99ms > 0 {
		// The acceptance bound is 1.5x; the tolerance leaves headroom for
		// runner jitter around a baseline recorded well inside the bound.
		t.AddMetric("gold_p99_surge_ratio", surge.GoldP99ms/fair.GoldP99ms, "ratio", false, 0.4)
	}
	if surge != nil {
		share := 1.0 // no sheds at all: bronze trivially absorbed them
		if total := surge.GoldSheds + surge.BronzeSheds; total > 0 {
			share = float64(surge.BronzeSheds) / float64(total)
		}
		t.AddMetric("bronze_shed_share", share, "ratio", true, 0.05)
		// Gold is never shed by the SLO ladder; ideal is zero, with a small
		// absolute allowance so a pathological runner cannot flake the gate.
		t.Metrics = append(t.Metrics, Metric{
			Name: "gold_shed_reads", Value: float64(surge.GoldSheds),
			Unit: "reads", HigherIsBetter: false, AbsTolerance: 2,
		})
		t.AddMetric("surge_hard_errors", float64(surge.Errors), "errors", false, 0)
		t.AddMetric("surge_bronze_sheds", float64(surge.BronzeSheds), "reads", true, -1)
		t.AddMetric("surge_ops_per_sec", surge.OpsPerSec, "ops/s", true, -1)
	}
	return t
}
