// Example nodefailure runs the classic erasure-store failure drill on the
// emulated cluster, end to end through the self-healing plane:
//
//  1. Objects are written into a (7,4) pool over 12 OSDs and served through
//     the Sprout controller with a warm functional cache.
//  2. Two OSDs are killed under live load, losing their chunks. The read
//     path's per-node breakers avoid them on their own error streaks, and
//     a heartbeat on OSD state marks them down in the controller's
//     membership, taking them out of the scheduler's draws, while reads keep
//     succeeding — degraded — via failover and the cache.
//  3. The repair plane reconstructs every lost chunk from survivors with
//     the erasure coder and re-places them on live OSDs, restoring full
//     redundancy while traffic continues.
//  4. The failed OSDs come back; the heartbeat marks them up, returning
//     them to the scheduler, and the repair plane promotes them from
//     Recovering to Up.
package main

import (
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
	"sprout/internal/stack"
	"sprout/internal/workload"
)

var (
	objects  = flag.Int("objects", 24, "objects written into the pool")
	objSize  = flag.Int("size", 256<<10, "object size in bytes")
	readers  = flag.Int("readers", 8, "concurrent reader goroutines")
	phaseLen = flag.Duration("phase", 700*time.Millisecond, "length of each serving phase")
)

func main() {
	flag.Parse()
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, out io.Writer) error {
	// The heartbeat goroutine prints beside the main one.
	var outMu sync.Mutex
	printf := func(format string, args ...any) {
		outMu.Lock()
		defer outMu.Unlock()
		fmt.Fprintf(out, format, args...)
	}
	sleep := func(d time.Duration) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
			return nil
		}
	}

	// --- Storage plane: 12 OSDs, (7,4) pool, 24 objects. -----------------
	st, err := stack.New(ctx, stack.Spec{
		Service: sprout.Exponential(600),
		Seed:    1,
		Objects: *objects,
		Size:    *objSize,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	oc, pool, fetcher := st.Cluster, st.Pool, st.Local
	printf("wrote %d objects of %d KiB into %s over 12 OSDs\n", *objects, *objSize>>10, stack.Pool)

	// --- Control plane: controller over the pool's real topology. --------
	// The serving path is the "avoid" signal: a node whose fetches keep
	// failing is demoted from the read path before anyone marks it down.
	breakers := sprout.NewBreakerSet(sprout.BreakerConfig{ErrorThreshold: 3, OpenFor: 100 * time.Millisecond})
	ctrl, err := st.Controller(ctx, 2**objects, sprout.ServeOptions{
		HedgeDelay: 20 * time.Millisecond, HedgeExtra: 1,
		// With the auto-replanner on, a membership change triggers an
		// immediate PlanTimeBin against the degraded node set.
		ReplanInterval: 300 * time.Millisecond, ReplanThreshold: 0.5,
		Breakers: breakers,
	}, 1)
	if err != nil {
		return err
	}

	// --- Self-healing plane: repair manager + membership heartbeat. ------
	mgr := sprout.NewRepairManager(pool, sprout.RepairConfig{
		Workers:      2,
		ScanInterval: 50 * time.Millisecond,
	})
	mgr.Start()
	defer mgr.Close()

	// The heartbeat is the "gone" signal: it reads each OSD's state and is
	// the controller's only source of membership, for both transitions.
	heartbeat := func() {
		for _, h := range oc.Health() {
			switch down := h.State == sprout.OSDDown; {
			case down && ctrl.SetNodeDown(h.ID):
				printf("  heartbeat: OSD %d DOWN -> excluded from scheduling, repair kicked\n", h.ID)
				mgr.Kick()
			case !down && ctrl.SetNodeUp(h.ID):
				printf("  heartbeat: OSD %d UP -> back in scheduling\n", h.ID)
			}
		}
	}
	stopProbe := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopProbe:
				return
			case <-ticker.C:
				heartbeat()
			}
		}
	}()
	defer func() { close(stopProbe); probeWG.Wait() }()

	// --- Serve live traffic across the failure/recovery phases. ----------
	picker := workload.NewRatePicker(st.Lambdas)
	var stop atomic.Bool
	var reads, readErrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < *readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 17))
			for !stop.Load() {
				if _, err := ctrl.Read(ctx, picker.Pick(r.Float64()), fetcher); err != nil {
					readErrs.Add(1)
					continue
				}
				reads.Add(1)
			}
		}(w)
	}
	stopReaders := func() { stop.Store(true); wg.Wait() }
	defer stopReaders() // idempotent; covers the early returns

	printf("--- phase 1: healthy serving\n")
	if err := sleep(*phaseLen); err != nil {
		return err
	}

	printf("--- phase 2: killing OSDs 3 and 7 (chunks lost), load continues\n")
	if err := oc.FailOSDs(true, 3, 7); err != nil {
		return err
	}
	if err := sleep(*phaseLen); err != nil {
		return err
	}

	// Wait (while serving) until the repair plane reports full redundancy.
	healStart := time.Now()
	for len(pool.DegradedObjects()) > 0 && time.Since(healStart) < 30*time.Second {
		if err := sleep(20 * time.Millisecond); err != nil {
			return err
		}
	}
	rs := mgr.Stats()
	printf("  repair: %d chunks (%d KiB) reconstructed in %v wall, %d objects degraded\n",
		rs.ChunksRepaired, rs.BytesRepaired>>10, time.Since(healStart).Round(time.Millisecond),
		len(pool.DegradedObjects()))

	printf("--- phase 3: OSDs 3 and 7 recover\n")
	if err := oc.RecoverOSDs(3, 7); err != nil {
		return err
	}
	if err := sleep(*phaseLen); err != nil {
		return err
	}

	stopReaders()
	ctrl.WaitFills()

	// --- Wrap-up. ---------------------------------------------------------
	stats := ctrl.Stats()
	lat := ctrl.ReadLatency()
	hit, sto, deg := lat.CacheHit.Snapshot(), lat.Storage.Snapshot(), lat.Degraded.Snapshot()
	printf("served %d reads (%d errors) across healthy, degraded and recovery phases\n",
		reads.Load(), readErrs.Load())
	printf("  cache hits: %d (p99 %v), storage: %d (p99 %v), degraded: %d (p99 %v)\n",
		hit.Count, hit.P99, sto.Count, sto.P99, deg.Count, deg.P99)
	printf("  failovers: %d, cache rescues: %d, membership changes: %d, auto-replans: %d, breaker opens: %d\n",
		stats.FetchFailovers, stats.CacheRescues, stats.MembershipChanges, stats.AutoReplans,
		breakers.Stats().Opens)
	printf("  down list at exit: %v (empty = all healthy)\n", ctrl.DownNodes())
	for _, h := range oc.Health() {
		if h.State != sprout.OSDUp {
			printf("  OSD %d still %v\n", h.ID, h.State)
		}
	}
	printf("done: failures avoided on the read path, membership from the heartbeat, reads served throughout, redundancy restored\n")
	return nil
}
