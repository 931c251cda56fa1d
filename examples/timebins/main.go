// Example timebins reproduces the paper's time-varying workload scenario
// end to end: requests arrive according to the Table I rates across three
// time bins, a sliding-window estimator detects the rate changes, and the
// controller re-plans the functional cache at each bin boundary, trimming
// shrunk allocations immediately and filling grown allocations lazily on
// first access.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"sprout"
	"sprout/internal/workload"
)

// nullStore returns zero-filled chunks; this example focuses on cache-plan
// dynamics rather than payload contents.
type nullStore struct{ chunkSize int }

func (s nullStore) FetchChunk(_ context.Context, _, _, _ int) ([]byte, error) {
	return make([]byte, s.chunkSize), nil
}

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, out io.Writer) error {
	// The Table I arrival rates are scaled up so that three 200-second bins
	// contain enough requests to drive the estimator; the service rates are
	// scaled by the same factor so per-node utilisation matches the paper's.
	const rateScale = 2000
	serviceRates := sprout.PaperServiceRates()
	for i := range serviceRates {
		serviceRates[i] *= rateScale
	}
	cfg := sprout.ClusterConfig{
		NumNodes:     12,
		NumFiles:     10,
		N:            7,
		K:            4,
		FileSize:     4 << 10,
		ServiceRates: serviceRates,
		Seed:         9,
	}
	clu, err := cfg.Build()
	if err != nil {
		return err
	}
	ctrl, err := sprout.NewController(clu, 10, sprout.OptimizerOptions{}, 1)
	if err != nil {
		return err
	}
	defer ctrl.Close()
	store := nullStore{chunkSize: 1 << 10}

	schedule := workload.TableISchedule(200)
	for b := range schedule.Bins {
		for i := range schedule.Bins[b].Lambdas {
			schedule.Bins[b].Lambdas[i] *= rateScale
		}
	}
	estimator := workload.NewRateEstimator(10, 100, 0.2)

	rng := rand.New(rand.NewSource(5))
	requests, err := schedule.GenerateSchedule(rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %d requests across %d time bins\n", len(requests), len(schedule.Bins))

	// Plan the first bin with its known rates.
	binStart := 0
	if _, err := ctrl.PlanTimeBin(schedule.Bins[0].Lambdas); err != nil {
		return err
	}
	estimator.StartBin(schedule.Bins[0].Lambdas)
	fmt.Fprintf(out, "bin 1 allocation: %v\n", ctrl.Plan().D)

	rebins := 0
	for _, req := range requests {
		estimator.Observe(req.Arrival, req.FileID)
		if _, err := ctrl.Read(ctx, req.FileID, store); err != nil {
			return err
		}
		// Re-plan when the estimator flags a significant rate change (at most
		// once per 100-second window).
		if req.Arrival-float64(binStart) > 100 && estimator.NeedsNewBin(req.Arrival) {
			rates := estimator.Rates(req.Arrival)
			plan, err := ctrl.PlanTimeBin(rates)
			if err != nil {
				return err
			}
			estimator.StartBin(rates)
			binStart = int(req.Arrival)
			rebins++
			fmt.Fprintf(out, "re-planned at t=%.0fs: allocation %v (bound %.2f s)\n", req.Arrival, plan.D, plan.Objective)
		}
	}
	ctrl.WaitFills()
	stats := ctrl.Stats()
	fmt.Fprintf(out, "\n%d plan updates (%d triggered by the estimator)\n", stats.PlanUpdates, rebins)
	fmt.Fprintf(out, "chunks served from cache: %d, from storage: %d, background cache fills: %d\n",
		stats.ChunksFromCache, stats.ChunksFromDisk, stats.LazyFills)
	return nil
}
