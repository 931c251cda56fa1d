package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
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
// (encode with the local SIMD coder, stage the n chunks in parallel over the
// pooled connections, two-phase commit) at 1, 8 and 16 concurrent writers
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

// writeStore builds the ingest-bench store: 12 zero-service OSDs behind a
// (7,4) pool, served over the binary transport.
func writeStore(cfg Config) (*transport.Server, string, error) {
	cluster, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      12,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: writeBenchObject / 4,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, "", err
	}
	if _, err := cluster.CreatePool("ingest", 7, 4); err != nil {
		return nil, "", err
	}
	srv := transport.NewServer(cluster)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

func writePoint(cfg Config, writers, totalOps int) (WriteResult, error) {
	srv, addr, err := writeStore(cfg)
	if err != nil {
		return WriteResult{}, err
	}
	defer srv.Close()
	client, err := transport.DialConfig(addr, transport.ClientConfig{Conns: 4})
	if err != nil {
		return WriteResult{}, err
	}
	defer client.Close()

	ctx := context.Background()
	payload := make([]byte, writeBenchObject)
	rand.New(rand.NewSource(cfg.Seed)).Read(payload)
	writer, err := transport.NewStripedWriter(ctx, client, "ingest")
	if err != nil {
		return WriteResult{}, err
	}

	var next atomic.Int64
	latencies := make([][]time.Duration, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []time.Duration
			for {
				op := int(next.Add(1)) - 1
				if op >= totalOps {
					break
				}
				opStart := time.Now()
				if _, err := writer.Put(ctx, fmt.Sprintf("obj-%02d", op%writeBenchWorkingSet), payload); err != nil {
					errs[w] = err
					return
				}
				lats = append(lats, time.Since(opStart))
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return WriteResult{}, err
		}
	}
	var merged []time.Duration
	for _, l := range latencies {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	pct := func(p float64) float64 {
		if len(merged) == 0 {
			return 0
		}
		return float64(merged[int(p*float64(len(merged)-1))]) / float64(time.Millisecond)
	}
	return WriteResult{
		Writers:   writers,
		Ops:       len(merged),
		OpsPerSec: float64(len(merged)) / elapsed.Seconds(),
		P50ms:     pct(0.50),
		P99ms:     pct(0.99),
		Overloads: srv.Stats().OverloadRejections,
		Retries:   client.Stats().Retries,
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
