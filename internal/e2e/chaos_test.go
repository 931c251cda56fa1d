package e2e

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/resilience"
	"sprout/internal/transport"
)

// All chaos scenarios run under `go test -run TestChaos ./internal/e2e`
// (the CI chaos job). They wire the full stack with the transport chaos
// harness attached and assert — loosely, with generous slack, because they
// share CI machines — the resilience-plane acceptance behaviour: a slow
// node starved of fetches once its breaker opens, zero read errors next to
// a flaky node, availability across an asymmetric partition during repair,
// and graceful shed-and-recover under overload.

// readRounds reads every file `rounds` times through the controller; any
// read error fails the test.
func readRounds(t *testing.T, h *harness, rounds int) {
	t.Helper()
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for fileID := 0; fileID < e2eObjects; fileID++ {
			if err := h.readAndCheck(ctx, fileID, h.payload(fileID)); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
}

// fetchesTo reads every file `rounds` times and returns how many chunk
// fetches reached the OSD meanwhile. The chaos harness counts one injected
// delay per request it sees for an OSD with a rule, so the OSD must have one.
func fetchesTo(t *testing.T, h *harness, chaos *transport.Chaos, rounds int) int64 {
	t.Helper()
	before := chaos.Stats().DelaysInjected
	readRounds(t, h, rounds)
	return chaos.Stats().DelaysInjected - before
}

// TestChaosSlowNode injects 100×-baseline latency into one OSD. With
// latency-aware breakers and hedging on, the read plane must learn to avoid
// it: once the breaker opens the OSD is demoted behind every healthy
// placement node and hedges never reach it, so its share of the fetches
// falls from its scheduling share to (nearly) nothing, and no read fails.
// The assertions are on counters, not on wall-clock latency: the reads are
// sequential, so the expected-work ranking sees no backlog and the healthy
// share is the plan's, whatever the machine's speed.
func TestChaosSlowNode(t *testing.T) {
	chaos := transport.NewChaos(7)
	// Over the transport a fetch through the slow node that loses to the
	// hedge still completes and reports its real latency to the breaker.
	// HedgeDelay > LatencyThreshold matters only for fetchers adapted from
	// a blocking FetchChunk, whose hedge losers are cancelled and register
	// as slow only when already overdue; it is kept so the test holds for
	// both.
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{
		ErrorThreshold: 3,
		// Wide enough that benign scheduling noise (race detector, shared CI
		// cores) cannot trip healthy nodes, while the 30ms fault still does.
		LatencyThreshold: 10 * time.Millisecond,
		OpenFor:          time.Minute, // no half-open probes during measurement
	})
	h, _ := newHarnessWith(t,
		core.ServeOptions{HedgeDelay: 12 * time.Millisecond, HedgeExtra: 2, Breakers: breakers},
		transport.ServerConfig{StagedPutTTL: time.Minute, Chaos: chaos},
		transport.ClientConfig{Conns: 3})

	// The plan concentrates fetches on a fixed subset of OSDs (cache serves
	// the rest), so slowing an arbitrary OSD may perturb nothing. Probe with
	// a harmless 1µs rule to find an OSD that actually takes fetch traffic.
	const healthyRounds, faultRounds = 8, 12
	slow := -1
	var healthy int64
	for osd := 0; osd < e2eOSDs && slow < 0; osd++ {
		chaos.SetRule(osd, transport.ChaosRule{Latency: time.Microsecond})
		if fetchesTo(t, h, chaos, 1) > 0 {
			slow = osd
			healthy = fetchesTo(t, h, chaos, healthyRounds)
		}
		chaos.ClearRule(osd)
	}
	if slow < 0 {
		t.Fatal("no OSD receives fetch traffic — harness wiring broken")
	}
	if healthy == 0 {
		t.Fatalf("OSD %d took fetches in the probe round but none in %d more", slow, healthyRounds)
	}

	chaos.SetRule(slow, transport.ChaosRule{Latency: 30 * time.Millisecond})
	// Warm up until the slow node's breaker opens: each read that touches it
	// either absorbs the 30ms delay or loses to the hedge with an overdue
	// cancel, and both register as slow observations.
	var warmup int64
	deadline := time.Now().Add(15 * time.Second)
	// Within its minute-long OpenFor only an open breaker refuses traffic.
	for breakers.Allow(slow) {
		if time.Now().After(deadline) {
			t.Fatalf("slow OSD %d never tripped its breaker despite taking fetch traffic", slow)
		}
		warmup += fetchesTo(t, h, chaos, 1)
	}
	if warmup == 0 {
		t.Fatal("breaker opened without the chaos harness delaying a single fetch — scenario did not exercise the slow node")
	}

	demotionsBefore := h.ctrl.Stats().BreakerDemotions
	faulty := fetchesTo(t, h, chaos, faultRounds)
	// Per round the slow OSD must now take at most a quarter of the fetches
	// it took while healthy. Expected is zero; the slack covers a healthy
	// node's breaker tripping on a stalled CI core, which can push a read
	// below the healthy boundary and into the demoted tail.
	if faulty*healthyRounds*4 > healthy*faultRounds {
		t.Fatalf("slow OSD %d still took %d fetches in %d rounds with its breaker open (healthy: %d in %d rounds)",
			slow, faulty, faultRounds, healthy, healthyRounds)
	}
	if h.ctrl.Stats().BreakerDemotions == demotionsBefore {
		t.Fatal("open breaker never demoted the slow node")
	}
}

// TestChaosFlakyNode makes one OSD fail every request. Reads must see zero
// errors — failover and breaker demotion absorb the faults — and the flaky
// node's breaker must open so later reads stop burning failovers on it.
func TestChaosFlakyNode(t *testing.T) {
	chaos := transport.NewChaos(3)
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{
		ErrorThreshold: 3,
		OpenFor:        time.Minute,
	})
	h, _ := newHarnessWith(t,
		core.ServeOptions{Breakers: breakers},
		transport.ServerConfig{StagedPutTTL: time.Minute, Chaos: chaos},
		transport.ClientConfig{Conns: 3})

	const flaky = 3
	chaos.SetRule(flaky, transport.ChaosRule{ErrorRate: 1})
	deadline := time.Now().Add(15 * time.Second)
	for breakers.Allow(flaky) { // refused only once the breaker is open
		if time.Now().After(deadline) {
			t.Skipf("scheduler never routed enough reads through OSD %d to trip its breaker", flaky)
		}
		readRounds(t, h, 1) // fails the test on any read error
	}
	failoversAtOpen := h.ctrl.Stats().FetchFailovers
	if failoversAtOpen == 0 {
		t.Fatal("flaky node tripped its breaker without any failover being counted")
	}

	readRounds(t, h, 10)
	stats := h.ctrl.Stats()
	if stats.BreakerDemotions == 0 {
		t.Fatal("open breaker never demoted the flaky node")
	}
	// Demotion keeps the flaky node out of the first-choice picks, so
	// failovers should nearly stop once the breaker is open. Allow a little
	// slack for reads already in flight at the transition.
	if grown := stats.FetchFailovers - failoversAtOpen; grown > failoversAtOpen {
		t.Fatalf("failovers kept growing after breaker opened: %d before, %d after", failoversAtOpen, grown)
	}
}

// TestChaosPartitionDuringRepair loses one OSD (chunk loss, repair starts)
// and asymmetrically partitions another — its requests vanish without a
// response. Hedged reads must complete around the black hole, repair must
// converge, and healing the partition restores a clean pool.
func TestChaosPartitionDuringRepair(t *testing.T) {
	chaos := transport.NewChaos(5)
	h, _ := newHarnessWith(t,
		core.ServeOptions{HedgeDelay: 3 * time.Millisecond, HedgeExtra: 2},
		transport.ServerConfig{StagedPutTTL: time.Minute, Chaos: chaos},
		transport.ClientConfig{Conns: 3})

	h.fail(t, 2)
	const partitioned = 6
	chaos.SetRule(partitioned, transport.ChaosRule{DropRequests: true})

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := h.readAndCheck(rctx, (r+i)%e2eObjects, h.payload((r+i)%e2eObjects))
				cancel()
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	waitCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := h.repair.WaitIdle(waitCtx); err != nil {
		t.Fatalf("repair did not drain during the partition: %v", err)
	}
	if st := chaos.Stats(); st.RequestsDropped == 0 {
		t.Fatal("partition dropped no requests — scenario did not exercise the black hole")
	}

	chaos.Reset()
	h.recover(t, 2)
	waitCtx2, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel2()
	if err := h.repair.WaitIdle(waitCtx2); err != nil {
		t.Fatalf("repair did not drain after healing: %v", err)
	}
	readRounds(t, h, 2)
}

// TestChaosOverloadRecovery drives a tiny server far past its capacity with
// admission control and budgeted retries on: every failure must classify as
// overload or a saturation shed (never a correctness error), the retry
// budget must keep wire amplification under 1.2×, and once the surge stops
// the gate must reopen — a full round of reads succeeds immediately.
func TestChaosOverloadRecovery(t *testing.T) {
	h, client := newHarnessWith(t,
		core.ServeOptions{Admission: &core.AdmissionConfig{MaxInFlight: 8}},
		transport.ServerConfig{StagedPutTTL: time.Minute, Workers: 2, MaxInFlight: 8},
		transport.ClientConfig{Conns: 2, Retries: 8})
	// Skew the rates so the plan marks low-value files — the deepest
	// brownout level needs something it is allowed to shed.
	if _, err := h.ctrl.PlanTimeBin([]float64{0.5, 4, 4, 4, 4, 4}); err != nil {
		t.Fatal(err)
	}

	const readers = 16
	var wg sync.WaitGroup
	var successes, overloads atomic.Int64
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				err := h.readAndCheck(context.Background(), (r+i)%e2eObjects, h.payload((r+i)%e2eObjects))
				switch {
				case err == nil:
					successes.Add(1)
				case errors.Is(err, core.ErrSaturated) || resilience.IsOverload(err):
					overloads.Add(1)
				default:
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("non-overload error under 2x load: %v", err)
	}
	if successes.Load() == 0 {
		t.Fatal("no reads succeeded under overload")
	}
	_ = overloads.Load() // sheds are legitimate; zero is also fine if capacity held
	if h.ctrl.Stats().BrownoutReads == 0 {
		t.Fatal("admission gate never engaged under 2x concurrency")
	}

	// Retry amplification: wire requests divided by first-attempt requests.
	cs := client.Stats()
	if cs.Requests > 0 {
		amp := float64(cs.Requests) / float64(cs.Requests-cs.Retries)
		if amp >= 1.2 {
			t.Fatalf("retry amplification %.3f, want < 1.2 (requests %d, retries %d)", amp, cs.Requests, cs.Retries)
		}
	}

	// Recovery: the surge is gone, the queue-depth signal drops instantly,
	// and a full round of reads (including the low-value file) succeeds.
	if lvl := h.ctrl.SaturationLevel(); lvl != 0 {
		t.Fatalf("saturation level %d after the surge drained, want 0", lvl)
	}
	readRounds(t, h, 2)
}

// TestChaosTwoTenantIsolation is the multi-tenant QoS scenario: one OSD
// turns slow while a bronze tenant surges far past its fair share against a
// small admission gate. Gold reads must all succeed with correct data — the
// SLO ladder never sheds gold and priority hedging keeps its tail fetches
// racing the slow node — while every shed lands on bronze, and the gate
// reopens for everyone once the surge drains.
func TestChaosTwoTenantIsolation(t *testing.T) {
	chaos := transport.NewChaos(9)
	h, _ := newHarnessWith(t,
		core.ServeOptions{
			HedgeDelay: 3 * time.Millisecond,
			HedgeExtra: 2,
			Admission:  &core.AdmissionConfig{MaxInFlight: 8},
			Tenants: []core.TenantPolicy{
				{Name: "gold", Class: core.ClassGold, Weight: 4},
				{Name: "bronze", Class: core.ClassBronze, Weight: 1},
			},
		},
		transport.ServerConfig{StagedPutTTL: time.Minute, Chaos: chaos,
			TenantWeights: map[string]int{"gold": 4, "bronze": 1}},
		transport.ClientConfig{Conns: 3, Retries: 6})

	// Find an OSD that takes fetch traffic under the plan and slow it down.
	slow := -1
	for osd := 0; osd < e2eOSDs; osd++ {
		before := chaos.Stats().DelaysInjected
		chaos.SetRule(osd, transport.ChaosRule{Latency: time.Microsecond})
		readRounds(t, h, 1)
		chaos.ClearRule(osd)
		if chaos.Stats().DelaysInjected > before {
			slow = osd
			break
		}
	}
	if slow < 0 {
		t.Fatal("no OSD receives fetch traffic — harness wiring broken")
	}
	chaos.SetRule(slow, transport.ChaosRule{Latency: 10 * time.Millisecond})

	const goldReaders, bronzeReaders, opsEach = 3, 16, 12
	goldCtx := core.WithTenant(context.Background(), "gold")
	bronzeCtx := core.WithTenant(context.Background(), "bronze")
	var wg sync.WaitGroup
	var bronzeOK, bronzeShed atomic.Int64
	errCh := make(chan error, goldReaders+bronzeReaders)
	for r := 0; r < goldReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				fileID := (r + i) % e2eObjects
				// Gold is never shed and never throttled: any error is a
				// correctness failure.
				if err := h.readAndCheck(goldCtx, fileID, h.payload(fileID)); err != nil {
					select {
					case errCh <- fmt.Errorf("gold reader %d: %w", r, err):
					default:
					}
					return
				}
			}
		}(r)
	}
	for r := 0; r < bronzeReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				fileID := (r + i) % e2eObjects
				err := h.readAndCheck(bronzeCtx, fileID, h.payload(fileID))
				switch {
				case err == nil:
					bronzeOK.Add(1)
				case errors.Is(err, core.ErrSaturated) || resilience.IsOverload(err):
					bronzeShed.Add(1)
				default:
					select {
					case errCh <- fmt.Errorf("bronze reader %d: %w", r, err):
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("hard error under two-tenant chaos: %v", err)
	}

	ts := h.ctrl.TenantStats()
	if ts["gold"].Sheds != 0 {
		t.Fatalf("gold was shed %d times — the SLO ladder must never shed gold", ts["gold"].Sheds)
	}
	if total := ts["gold"].Sheds + ts["bronze"].Sheds; total > 0 && ts["bronze"].Sheds != total {
		t.Fatalf("bronze absorbed %d of %d sheds, want all", ts["bronze"].Sheds, total)
	}
	if bronzeOK.Load() == 0 {
		t.Fatal("no bronze read succeeded — shedding must degrade, not blackout")
	}
	if h.ctrl.Stats().BrownoutReads == 0 {
		t.Fatal("admission gate never engaged under the bronze surge")
	}

	// Recovery: faults and surge gone, the gate reopens for every tenant.
	chaos.Reset()
	if lvl := h.ctrl.SaturationLevel(); lvl == 3 {
		t.Fatalf("saturation still at level %d after the surge drained", lvl)
	}
	for fileID := 0; fileID < e2eObjects; fileID++ {
		if err := h.readAndCheck(bronzeCtx, fileID, h.payload(fileID)); err != nil {
			t.Fatalf("bronze read after recovery: %v", err)
		}
	}
}
