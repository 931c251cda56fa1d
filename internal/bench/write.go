package bench

import (
	"context"
	"fmt"
	"math/rand"

	"sprout/internal/queue"
	"sprout/internal/stack"
	"sprout/internal/transport"
)

// WriteResult measures the striped ingest path at one offered write
// concurrency.
type WriteResult struct {
	Writers   int
	Ops       int
	OpsPerSec float64
	P50ms     float64
	P99ms     float64
	Overloads int64
	Retries   int64
}

const (
	// writeBenchObject is the object payload size of the measured puts.
	writeBenchObject = 1 << 20
	// writeBenchWorkingSet cycles the writers over a bounded object set, so
	// the bench also exercises overwrite version flips under load.
	writeBenchWorkingSet = 32
	// writeScalingTolerance is the write gate's allowed relative drop of
	// striped_scaling_16_vs_1. On 2 vCPUs, 109 runs of unchanged code read
	// 1.20–2.14 (median 1.84, two stalled runs at 1.20), so 40 % below a
	// median baseline raised no false alarm; writers that stopped overlapping
	// read ≈ 1.0 and still fail it.
	writeScalingTolerance = 0.40
)

// WriteThroughput measures the ingest plane: striped client-side writes
// (encode with the local SIMD coder, send the n staged chunks in one write
// per pooled connection, two-phase commit) at 1, 8 and 16 concurrent writers
// over loopback. OSD service times are zero, so the points measure how the
// client, the transport and the staging path scale with concurrency.
func WriteThroughput(cfg Config) ([]WriteResult, error) {
	cfg = cfg.withDefaults()
	opsPerPoint := 320
	if cfg.Files >= 1000 { // paper scale: longer points, steadier numbers
		opsPerPoint = 1280
	}
	var out []WriteResult
	for _, writers := range []int{1, 8, 16} {
		res, err := writePoint(cfg, writers, opsPerPoint)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// writePoint measures totalOps striped puts from writers writers into 12
// zero-service OSDs behind the (7,4) pool, served over loopback.
func writePoint(cfg Config, writers, totalOps int) (WriteResult, error) {
	ctx := context.Background()
	st, err := stack.New(ctx, stack.Spec{
		Service: queue.Deterministic{Value: 0},
		Seed:    cfg.Seed,
		Size:    writeBenchObject,
		Listen:  "127.0.0.1:0",
		Tenants: []string{""},
		Client:  transport.ClientConfig{Conns: 4},
	})
	if err != nil {
		return WriteResult{}, err
	}
	defer st.Close()
	payload := make([]byte, writeBenchObject)
	rand.New(rand.NewSource(cfg.Seed)).Read(payload)

	res := closedLoop{workers: writers, ops: totalOps}.run(ctx, func(_ *rand.Rand, op int) error {
		_, err := st.Striped.WriteObject(ctx, op%writeBenchWorkingSet, payload)
		return err
	})
	if res.err != nil {
		return WriteResult{}, res.err
	}
	return WriteResult{
		Writers:   writers,
		Ops:       len(res.lats),
		OpsPerSec: res.opsPerSec(),
		P50ms:     pct(res.lats, 0.50),
		P99ms:     pct(res.lats, 0.99),
		Overloads: st.Server.Stats().OverloadRejections,
		Retries:   st.Striped.Client.Stats().Retries,
	}, nil
}

// WriteTable renders WriteThroughput results, with each point's ops/s
// relative to the single-writer point.
func WriteTable(results []WriteResult) *Table {
	t := &Table{
		Title:   "ingest plane: striped client-side writes (2PC) across writer concurrency",
		Headers: []string{"writers", "ops", "ops/s", "p50 ms", "p99 ms", "vs 1 writer", "overloads", "retries"},
		Notes: []string{
			fmt.Sprintf("1 MiB objects into a (7,4) pool over %d zero-service OSDs on loopback; overwrites cycle a %d-object working set", 12, writeBenchWorkingSet),
			fmt.Sprintf("gate: striped_scaling_16_vs_1 may drop %.0f%% below its baseline (0 false alarms in 109 runs of unchanged code on 2 vCPUs); overload_rejections must stay 0", 100*writeScalingTolerance),
		},
	}
	var base, top float64
	var overloads int64
	for _, r := range results {
		if r.Writers == 1 {
			base = r.OpsPerSec
		}
		if r.Writers == 16 {
			top = r.OpsPerSec
		}
		overloads += r.Overloads
	}
	for _, r := range results {
		scaling := "-"
		if base > 0 {
			scaling = fmt.Sprintf("%.2fx", r.OpsPerSec/base)
		}
		t.AddRow(
			itoa(r.Writers),
			itoa(r.Ops),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.2f", r.P50ms),
			fmt.Sprintf("%.2f", r.P99ms),
			scaling,
			i64toa(r.Overloads),
			i64toa(r.Retries),
		)
	}
	if base > 0 && top > 0 {
		t.AddMetric("striped_scaling_16_vs_1", top/base, "ratio", true, writeScalingTolerance)
	}
	t.AddMetric("overload_rejections", float64(overloads), "count", false, 0)
	return t
}
