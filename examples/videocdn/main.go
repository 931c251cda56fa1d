// Example videocdn models the motivating scenario of the paper's
// introduction: a video-on-demand library where roughly 20% of the titles
// receive 80% of the requests, served from erasure-coded storage with a
// cache at the streaming proxy. It compares the latency bound of Sprout's
// optimized functional cache against caching whole popular videos and
// against having no cache, then serves the workload live through the
// concurrent controller: hedged parallel fetches against an emulated
// storage backend while the auto-replanner watches a previously cold title
// go viral and re-plans the cache on its own.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sprout"
	"sprout/internal/bench"
	"sprout/internal/optimizer"
	"sprout/internal/workload"
)

var (
	hedgeDelay  = flag.Duration("hedge-delay", 3*time.Millisecond, "hedge timer for straggling chunk fetches (0 disables)")
	hedgeExtra  = flag.Int("hedge-extra", 2, "max extra hedged fetches per read")
	fillWorkers = flag.Int("fill-workers", 2, "background cache-fill workers")
	replanEvery = flag.Duration("replan-every", 150*time.Millisecond, "auto-replanner tick (0 disables)")
	replanTh    = flag.Float64("replan-threshold", 0.5, "relative rate drift that triggers a replan")
	serveFor    = flag.Duration("serve", 2*time.Second, "how long to serve live traffic")
	readers     = flag.Int("readers", 8, "concurrent reader goroutines")
)

func main() {
	flag.Parse()
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, out io.Writer) error {
	const (
		numVideos  = 120
		cacheSize  = 150 // chunks
		videoBytes = 200 << 20
	)
	cfg := sprout.ClusterConfig{
		NumNodes:     12,
		NumFiles:     numVideos,
		N:            7,
		K:            4,
		FileSize:     videoBytes,
		ServiceRates: sprout.PaperServiceRates(),
		Seed:         3,
	}
	clu, err := cfg.Build()
	if err != nil {
		return err
	}

	// Zipf popularity: a small head of titles dominates the request stream.
	// The aggregate rate is chosen so the cluster is heavily loaded but still
	// stable even without a cache (the no-cache baseline must be feasible).
	lambdas := workload.Zipf(numVideos, 1.1, 0.22)
	clu, err = clu.WithArrivalRates(lambdas)
	if err != nil {
		return err
	}

	prob, err := sprout.ProblemFromCluster(clu, cacheSize)
	if err != nil {
		return err
	}
	functional, err := sprout.Optimize(prob, sprout.OptimizerOptions{})
	if err != nil {
		return err
	}
	wholeFile, err := optimizer.WholeFileCaching(prob)
	if err != nil {
		return err
	}
	noCache, err := optimizer.NoCache(prob)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "video CDN, 120 titles, Zipf(1.1) popularity, cache = 150 chunks")
	fmt.Fprintf(out, "  no cache:             %.2f s mean latency bound\n", noCache.Objective)
	fmt.Fprintf(out, "  whole-video caching:  %.2f s (caches %d chunks)\n", wholeFile.Objective, wholeFile.CacheUsed())
	fmt.Fprintf(out, "  Sprout functional:    %.2f s (caches %d chunks)\n", functional.Objective, functional.CacheUsed())

	hot := 0
	for i := 0; i < 10; i++ {
		hot += functional.D[i]
	}
	fmt.Fprintf(out, "  chunks cached for the 10 hottest titles: %d of %d\n", hot, functional.CacheUsed())

	// A previously cold title goes viral: re-plan the next time bin with the
	// new rates, warm-starting from the current allocation.
	viral := numVideos - 1
	lambdas[viral] = 0.05
	clu2, err := clu.WithArrivalRates(lambdas)
	if err != nil {
		return err
	}
	prob2, err := sprout.ProblemFromCluster(clu2, cacheSize)
	if err != nil {
		return err
	}
	replanned, err := sprout.Optimize(prob2, sprout.OptimizerOptions{WarmStart: functional.D})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nafter title %d goes viral (0.05 req/s):\n", viral)
	fmt.Fprintf(out, "  new bound %.2f s; viral title now holds %d cache chunks (was %d)\n",
		replanned.Objective, replanned.D[viral], functional.D[viral])

	return serveLive(ctx, out)
}

// serveLive drives the concurrent serving path: Zipf traffic over a scaled-
// down library, a mid-run popularity flip to the viral title, and the
// auto-replanner adapting the cache plan without any manual PlanTimeBin.
func serveLive(ctx context.Context, out io.Writer) error {
	const (
		titles    = 40
		cacheSize = 50
		titleSize = 256 << 10
	)
	fmt.Fprintf(out, "\nserving live traffic (%d titles, %v, %d readers, hedge %v +%d, replan every %v):\n",
		titles, *serveFor, *readers, *hedgeDelay, *hedgeExtra, *replanEvery)

	// The auto-replanner feeds *measured* request rates (thousands of reads
	// per second) into the optimizer, so the node service rates must be on
	// the same scale or every re-plan would be rejected as unstable. Scale
	// the paper's relative rates up to emulated-hardware speed.
	const rateScale = 1e5
	serviceRates := sprout.PaperServiceRates()
	for i := range serviceRates {
		serviceRates[i] *= rateScale
	}
	cfg := sprout.ClusterConfig{
		NumNodes:     12,
		NumFiles:     titles,
		N:            7,
		K:            4,
		FileSize:     titleSize,
		ServiceRates: serviceRates,
		Seed:         4,
	}
	clu, err := cfg.Build()
	if err != nil {
		return err
	}
	lambdas := workload.Zipf(titles, 1.1, 100)
	clu, err = clu.WithArrivalRates(lambdas)
	if err != nil {
		return err
	}
	ctrl, err := sprout.NewControllerWith(clu, cacheSize, sprout.OptimizerOptions{},
		sprout.ServeOptions{
			HedgeDelay:      *hedgeDelay,
			HedgeExtra:      *hedgeExtra,
			FillWorkers:     *fillWorkers,
			ReplanInterval:  *replanEvery,
			ReplanThreshold: *replanTh,
		}, 1)
	if err != nil {
		return err
	}
	defer ctrl.Close()

	// Encode the library into an emulated store whose per-fetch service time
	// (0.3ms + Exp(0.5ms), 3% stragglers at 10x) gives hedging tails to beat.
	chunks := make([][][]byte, titles)
	originals := make([][]byte, titles)
	rng := rand.New(rand.NewSource(9))
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		rng.Read(payload)
		originals[meta.ID] = payload
		dataChunks, err := meta.Code.Split(payload)
		if err != nil {
			return err
		}
		chunks[meta.ID], err = meta.Code.Encode(dataChunks)
		if err != nil {
			return err
		}
	}
	store := bench.NewLatencyStore(chunks, 8, 300*time.Microsecond, 500*time.Microsecond, 0.03, 10)
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		return err
	}
	if err := ctrl.PrefetchCache(ctx, store); err != nil {
		return err
	}

	// Halfway through, the coldest title goes viral: readers flip most of
	// their traffic onto it and the auto-replanner must catch the drift —
	// and the publisher re-ingests the title (a re-encode of the mezzanine)
	// mid-run through Controller.Write, which stripes the new content into
	// the store under a fresh version and refreshes the functional cache by
	// write-through. Reads racing the re-ingest must return either cut in
	// full, never a mix.
	viral := titles - 1
	var goneViral atomic.Bool
	// allowedViral holds the payloads a viral-title read may legally return
	// while the re-ingest is in flight.
	var allowedViral atomic.Pointer[[][]byte]
	allowedViral.Store(&[][]byte{originals[viral]})
	var reingested atomic.Bool
	storeWriter := sprout.ObjectWriterFunc(func(ctx context.Context, fileID int, data []byte) (uint64, error) {
		meta := ctrl.Files()[fileID]
		dataChunks, err := meta.Code.Split(data)
		if err != nil {
			return 0, err
		}
		coded, err := meta.Code.Encode(dataChunks)
		if err != nil {
			return 0, err
		}
		return store.SetFile(fileID, coded, len(data)), nil
	})
	// The first failure, a reader's or the re-ingest's, cancels the rest and
	// is what serveLive returns.
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-time.After(*serveFor / 2):
		case <-ctx.Done():
			return
		}
		goneViral.Store(true)
		newCut := make([]byte, titleSize)
		rand.New(rand.NewSource(99)).Read(newCut)
		allowedViral.Store(&[][]byte{originals[viral], newCut})
		if err := ctrl.Write(ctx, viral, newCut, storeWriter); err != nil {
			fail(err)
			return
		}
		originals[viral] = newCut
		reingested.Store(true)
	}()

	stop := time.Now().Add(*serveFor)
	picker := workload.NewRatePicker(lambdas)
	var readsDone atomic.Int64
	for w := 0; w < *readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 20))
			for time.Now().Before(stop) && ctx.Err() == nil {
				title := picker.Pick(r.Float64())
				if goneViral.Load() && r.Float64() < 0.6 {
					title = viral
				}
				got, err := ctrl.Read(ctx, title, store)
				if err != nil {
					fail(err)
					return
				}
				if title == viral {
					okAny := false
					for _, want := range *allowedViral.Load() {
						if bytes.Equal(got, want) {
							okAny = true
							break
						}
					}
					if !okAny {
						fail(fmt.Errorf("title %d served bytes matching neither cut (mixed stripe?)", title))
						return
					}
				} else if !bytes.Equal(got, originals[title]) {
					fail(fmt.Errorf("title %d content mismatch", title))
					return
				}
				readsDone.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return err
	}
	ctrl.WaitFills()

	// After the re-ingest committed, a fresh read must serve the new cut.
	if reingested.Load() {
		got, err := ctrl.Read(ctx, viral, store)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, originals[viral]) {
			return fmt.Errorf("viral title still serves the old cut after re-ingest")
		}
	}

	stats := ctrl.Stats()
	lat := ctrl.ReadLatency()
	hit, sto := lat.CacheHit.Snapshot(), lat.Storage.Snapshot()
	fmt.Fprintf(out, "  served %d reads (%.0f/s): %d auto-replans (%d rejected), %d background fills, %d hedges (%d wins)\n",
		readsDone.Load(), float64(readsDone.Load())/serveFor.Seconds(),
		stats.AutoReplans, stats.ReplanErrors, stats.LazyFills, stats.HedgesLaunched, stats.HedgeWins)
	if reingested.Load() {
		wlat := ctrl.WriteLatency().Snapshot()
		fmt.Fprintf(out, "  re-ingested viral title mid-run: %d write(s) in p50 %v, %d cache chunks invalidated, %d written through, %d stale-cache reloads, %d read retries\n",
			stats.Writes, wlat.P50, stats.CacheInvalidations, stats.WriteThroughChunks, stats.StaleCacheReloads, stats.ReadRetries)
	}
	fmt.Fprintf(out, "  cache-hit reads: %6d  p50 %8v  p99 %8v\n",
		hit.Count, hit.P50, hit.P99)
	fmt.Fprintf(out, "  storage reads:   %6d  p50 %8v  p99 %8v\n",
		sto.Count, sto.P50, sto.P99)
	fmt.Fprintf(out, "  viral title now holds %d cache chunks (planned %d)\n",
		ctrl.Cache().ChunksForFile(viral), ctrl.CacheAllocationTarget(viral))
	return nil
}
