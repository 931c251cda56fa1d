package main

import (
	"context"
	"fmt"
	"time"
)

// Ladder settings: informational, not part of BENCHMARK.json. "Highest rate
// under the limit" flips between adjacent steps from run to run, so it is
// printed, never gated.
var ladderRates = []float64{300, 450, 600, 750, 900}

const (
	ladderSeconds = 8
	ladderP99MS   = 60
)

// runLadder measures an open-loop workload at each rate of the ladder on a
// fresh stack and prints p50, p99 and fail_frac per rate, and the highest
// rate that keeps read_p99_ms within ladderP99MS without a growing backlog:
// the reads in flight over the last fifth of the interval are no more than
// twice those over its middle fifth plus five (a backlog that grows does
// so by hundreds; one of three reads flips on noise). A rate the planner
// refuses as unstable ends the ladder.
func runLadder(ctx context.Context, name string, seed int64) error {
	wl, ok := findWorkload(name)
	if !ok || !wl.open {
		return fmt.Errorf("-ladder needs an open-loop workload, not %q", name)
	}
	fmt.Printf("%-8s %12s %12s %10s %12s %12s  %s\n", "reads/s", "read_p50_ms", "read_p99_ms", "fail_frac", "backlog_mid", "backlog_end", "verdict")
	best := 0.0
	for _, rate := range ladderRates {
		step := wl
		step.rate = rate
		out, err := runPhase(ctx, phaseConfig{wl: step, seed: seed, warmup: wl.warmup, timed: ladderSeconds * time.Second, setUps: 1})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			fmt.Printf("%-8g %v\n", rate, err)
			break
		}
		v := out.values
		growing := v["gen.backlog_end"] > 2*v["gen.backlog_mid"]+5
		verdict := "ok"
		switch {
		case v["read_p99_ms"] > ladderP99MS:
			verdict = "over the p99 limit"
		case growing:
			verdict = "backlog grows"
		case v["fail_frac"] > 0:
			verdict = "reads fail"
		default:
			best = rate
		}
		fmt.Printf("%-8g %12.4f %12.4f %10.5f %12.2f %12.2f  %s\n", rate, v["read_p50_ms"], v["read_p99_ms"], v["fail_frac"], v["gen.backlog_mid"], v["gen.backlog_end"], verdict)
	}
	fmt.Printf("highest rate with read_p99_ms <= %d ms, no failures and no growing backlog: %g reads/s\n", ladderP99MS, best)
	return nil
}
