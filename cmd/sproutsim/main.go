// Command sproutsim runs the discrete-event simulator on the paper's cluster
// configuration, comparing the latency of the optimized functional-caching
// plan against a no-cache baseline, and validating the analytical bound.
//
// Usage:
//
//	sproutsim -files 200 -cache 100 -horizon 20000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"sprout/internal/cluster"
	"sprout/internal/optimizer"
	"sprout/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sproutsim:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	files, cache             int
	horizon, rate, writeFrac float64
	seed                     int64
}

// parseFlags parses and checks the command line; nothing is solved or
// simulated before it returns.
func parseFlags(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("sproutsim", flag.ContinueOnError)
	fs.IntVar(&o.files, "files", 200, "number of files")
	fs.IntVar(&o.cache, "cache", 100, "cache capacity in chunks")
	fs.Float64Var(&o.horizon, "horizon", 20000, "simulated seconds")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.rate, "rate", 0, "per-file arrival rate override (0 = paper rates)")
	fs.Float64Var(&o.writeFrac, "writefrac", 0, "fraction of arrivals that are full-stripe writes (0..1)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if !(o.writeFrac >= 0 && o.writeFrac <= 1) {
		return nil, fmt.Errorf("-writefrac %v outside [0, 1]", o.writeFrac)
	}
	if !(o.rate >= 0) || math.IsInf(o.rate, 1) {
		return nil, fmt.Errorf("-rate %v: want 0 (the paper rates) or a finite rate", o.rate)
	}
	if !(o.horizon > 0) || math.IsInf(o.horizon, 1) {
		return nil, fmt.Errorf("-horizon %v: want a finite number of seconds above 0", o.horizon)
	}
	return &o, nil
}

// run executes one sproutsim invocation, printing its report to out.
func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}

	cfg := cluster.PaperConfig()
	cfg.NumFiles = o.files
	cfg.Seed = o.seed
	if o.rate > 0 {
		cfg.ArrivalRates = []float64{o.rate}
	}
	clu, err := cfg.Build()
	if err != nil {
		return err
	}

	prob, err := optimizer.FromCluster(clu, o.cache)
	if err != nil {
		return err
	}
	plan, err := optimizer.Optimize(prob, optimizer.Options{})
	if err != nil {
		return err
	}
	noCachePlan, err := optimizer.NoCache(prob)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "cluster: %d files on %d nodes, cache %d chunks\n", o.files, len(clu.Nodes), o.cache)
	fmt.Fprintf(out, "optimizer: bound %.3f s (no cache: %.3f s), cache used %d chunks, %d iterations\n",
		plan.Objective, noCachePlan.Objective, plan.CacheUsed(), plan.Iterations)

	for _, arm := range []struct {
		name string
		plan *optimizer.Plan
	}{{"functional", plan}, {"no-cache", noCachePlan}} {
		res, err := sim.Run(sim.Config{
			Cluster:        clu,
			Pi:             arm.plan.Pi,
			CacheChunks:    arm.plan.D,
			Horizon:        o.horizon,
			Seed:           o.seed,
			WarmupFraction: 0.05,
			WriteFrac:      o.writeFrac,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-12s requests=%d mean=%.3fs p95=%.3fs p99=%.3fs cacheChunks=%d storageChunks=%d\n",
			arm.name, res.Requests, res.MeanLatency, res.P95Latency, res.P99Latency, res.CacheChunks, res.StorageChunks)
		if res.WriteRequests > 0 {
			fmt.Fprintf(out, "%-12s writes=%d writtenChunks=%d writeMean=%.3fs writeP99=%.3fs\n",
				arm.name, res.WriteRequests, res.WrittenChunks, res.MeanWriteLatency, res.P99WriteLatency)
		}
	}
	return nil
}
