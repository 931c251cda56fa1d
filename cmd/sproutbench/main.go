// Command sproutbench regenerates the paper's evaluation tables and figures
// on the emulated substrates. Each experiment prints a table whose rows
// correspond to the points or bars of the original figure.
//
// Usage:
//
//	sproutbench -exp all                # every experiment at reduced scale
//	sproutbench -exp fig4 -files 1000   # one experiment at paper scale
//	sproutbench -list                   # list experiment names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sprout/internal/bench"
)

type experiment struct {
	name string
	desc string
	run  func(bench.Config) (*bench.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"fig3", "convergence of Algorithm 1 per cache size", func(cfg bench.Config) (*bench.Table, error) {
			s, err := bench.Fig3Convergence(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig3Table(s), nil
		}},
		{"fig4", "average latency vs cache size", func(cfg bench.Config) (*bench.Table, error) {
			p, err := bench.Fig4CacheSize(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig4Table(p), nil
		}},
		{"fig5", "cache-content evolution across time bins (Table I)", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.Fig5Evolution(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig5Table(r), nil
		}},
		{"fig6", "placement/arrival-rate interaction", func(cfg bench.Config) (*bench.Table, error) {
			p, err := bench.Fig6Placement(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig6Table(p), nil
		}},
		{"fig7", "chunks from cache vs storage per slot", func(cfg bench.Config) (*bench.Table, error) {
			s, err := bench.Fig7RequestSplit(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig7Table(s), nil
		}},
		{"fig9", "chunk service-time CDF / Table IV", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.Fig9ServiceCDF(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig9Table(r), nil
		}},
		{"table5", "cache (SSD) read latency per chunk size", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.TableVCacheLatency(cfg)
			if err != nil {
				return nil, err
			}
			return bench.TableVTable(r), nil
		}},
		{"fig10", "latency vs object size: optimal vs LRU tier", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.Fig10ObjectSize(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig10Table(r), nil
		}},
		{"fig11", "latency vs aggregate arrival rate: optimal vs LRU tier", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.Fig11ArrivalRate(cfg)
			if err != nil {
				return nil, err
			}
			return bench.Fig11Table(r), nil
		}},
		{"ablation", "caching-policy ablation at equal budget", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.PolicyAblation(cfg, 0)
			if err != nil {
				return nil, err
			}
			return bench.AblationTable(r), nil
		}},
		{"coder", "erasure data-plane throughput and decode-plan cache", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.CoderThroughput(cfg)
			if err != nil {
				return nil, err
			}
			return bench.CoderTable(r), nil
		}},
		{"read", "controller serving path: parallel vs hedged fetches", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.ReadThroughput(cfg)
			if err != nil {
				return nil, err
			}
			return bench.ReadTable(r), nil
		}},
		{"degraded", "degraded reads and background repair under OSD failures", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.DegradedReadLatency(cfg)
			if err != nil {
				return nil, err
			}
			return bench.DegradedTable(r), nil
		}},
		{"write", "ingest plane: striped client-side writes across 1, 8 and 16 writers", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.WriteThroughput(cfg)
			if err != nil {
				return nil, err
			}
			return bench.WriteTable(r), nil
		}},
		{"chaos", "resilience plane A/B: slow+flaky and overload chaos with breakers/backoff off vs on", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.ChaosResilience(cfg)
			if err != nil {
				return nil, err
			}
			return bench.ChaosTable(r), nil
		}},
		{"autoscale", "closed-loop capacity plane: diurnal+viral trace, adaptive loop at 500ms vs at 60ms + admission", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.AutoscaleClosedLoop(cfg)
			if err != nil {
				return nil, err
			}
			return bench.AutoscaleTable(r), nil
		}},
		{"shard", "sharded metadata plane: router throughput scaling over 1-4 shard controllers", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.ShardScaling(cfg)
			if err != nil {
				return nil, err
			}
			return bench.ShardTable(r), nil
		}},
		{"tenants", "multi-tenant QoS: bronze surge at 4x fair load vs gold p99, weighted-fair sharing end to end", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.TenantQoS(cfg)
			if err != nil {
				return nil, err
			}
			return bench.TenantTable(r), nil
		}},
		{"hotpath", "serving hot path: work-queue (wfq) vs channel hand-off, zero-alloc read checks", func(cfg bench.Config) (*bench.Table, error) {
			r, err := bench.HotpathQueues(cfg)
			if err != nil {
				return nil, err
			}
			return bench.HotpathTable(r), nil
		}},
	}
}

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment to run (see -list), or 'all'")
		files    = flag.Int("files", 0, "number of files/objects (0 = quick default, 1000 = paper scale)")
		iters    = flag.Int("iters", 0, "max outer iterations of the optimizer (0 = default)")
		horizon  = flag.Float64("horizon", 0, "simulation horizon in seconds (0 = default)")
		seed     = flag.Int64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list available experiments and exit")
		paper    = flag.Bool("paper", false, "use full paper-scale defaults (slow)")
		jsonPath = flag.String("json", "", "write machine-readable metrics of the selected experiments to this file ('-' = stdout)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments() {
			fmt.Printf("  %-8s %s\n", e.name, e.desc)
		}
		return
	}

	cfg := bench.Quick()
	if *paper {
		cfg = bench.Paper()
	}
	if *files > 0 {
		cfg.Files = *files
	}
	if *iters > 0 {
		cfg.MaxOuterIter = *iters
	}
	if *horizon > 0 {
		cfg.SimHorizon = *horizon
	}
	cfg.Seed = *seed

	selected := strings.ToLower(*expName)
	ran := 0
	var results []bench.Run
	for _, e := range experiments() {
		if selected != "all" && selected != e.name {
			continue
		}
		start := time.Now()
		table, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sproutbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		table.Write(os.Stdout)
		fmt.Printf("  (%s completed in %v with %d files)\n\n", e.name, time.Since(start).Round(time.Millisecond), cfg.Files)
		if len(table.Metrics) > 0 {
			results = append(results, bench.Run{
				Experiment: e.name, Files: cfg.Files, Seed: cfg.Seed, Metrics: table.Metrics,
			})
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sproutbench: unknown experiment %q (use -list)\n", *expName)
		os.Exit(1)
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sproutbench: encode json: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sproutbench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
