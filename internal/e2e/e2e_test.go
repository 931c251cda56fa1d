// Package e2e takes the full stack as internal/stack wires it — emulated
// OSD cluster, binary transport, striped client-side writes, Sprout
// controller — adds a repair plane, and runs table-driven failure/overwrite
// scenarios against it. Run with -race in CI: the scenarios are
// deliberately concurrent.
package e2e

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/core"
	"sprout/internal/queue"
	"sprout/internal/repair"
	"sprout/internal/stack"
	"sprout/internal/transport"
)

const (
	e2eObjects = 6
	e2eSize    = 16 << 10
	e2eOSDs    = 12 // the stack's cluster size
	e2eN       = 7
	e2eK       = 4
)

// harness is one fully wired stack — cluster, pool, TCP server, pooled
// client, striped writer, remote fetcher, controller — plus a repair
// manager.
type harness struct {
	*stack.Stack
	fetcher   *transport.RemoteFetcher
	ctrl      *core.Controller
	repair    *repair.Manager
	payloads  [][]byte // last payload written per file, guarded by payloadMu
	payloadMu sync.Mutex
}

// e2eSpec is the stack every scenario runs on: six 16 KiB objects over
// twelve 0.3 ms OSDs, served over loopback.
func e2eSpec(scfg transport.ServerConfig, ccfg transport.ClientConfig) stack.Spec {
	return stack.Spec{
		Service: queue.Deterministic{Value: 0.0003},
		Seed:    11,
		Objects: e2eObjects,
		Size:    e2eSize,
		Listen:  "127.0.0.1:0",
		Server:  scfg,
		Tenants: []string{""},
		Client:  ccfg,
	}
}

// newStack builds spec's stack, its files read at equal rates, closed when
// the test ends.
func newStack(t *testing.T, spec stack.Spec) *stack.Stack {
	t.Helper()
	st, err := stack.New(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	for i := range st.Lambdas {
		st.Lambdas[i] = 2.0
	}
	return st
}

func (h *harness) payload(fileID int) []byte {
	h.payloadMu.Lock()
	defer h.payloadMu.Unlock()
	return h.payloads[fileID]
}

func (h *harness) setPayload(fileID int, data []byte) {
	h.payloadMu.Lock()
	h.payloads[fileID] = data
	h.payloadMu.Unlock()
}

// write ingests new content for a file through the controller (striped
// client-side write over the transport + functional-cache refresh).
func (h *harness) write(ctx context.Context, fileID int, data []byte) error {
	if err := h.ctrl.Write(ctx, fileID, data, h.Striped); err != nil {
		return err
	}
	h.setPayload(fileID, data)
	return nil
}

// fail takes OSDs down (losing their chunks) in both the storage plane and
// the controller's membership view, then kicks the repair plane.
func (h *harness) fail(t *testing.T, ids ...int) {
	t.Helper()
	if err := h.Cluster.FailOSDs(true, ids...); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		h.ctrl.SetNodeDown(id)
	}
	h.repair.Kick()
}

func (h *harness) recover(t *testing.T, ids ...int) {
	t.Helper()
	if err := h.Cluster.RecoverOSDs(ids...); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		h.ctrl.SetNodeUp(id)
	}
	h.repair.Kick()
}

// newHarness boots the stack: objects ingested, controller planned +
// prefetched over the remote fetcher, repair workers running.
func newHarness(t *testing.T, serve core.ServeOptions) *harness {
	h, _ := newHarnessWith(t, serve,
		transport.ServerConfig{StagedPutTTL: time.Minute},
		transport.ClientConfig{Conns: 3})
	return h
}

// newHarnessWith boots the stack with explicit transport configs (chaos
// harness, tiny worker pools, client retry policies) and also returns the
// client so scenarios can inspect its transport stats.
func newHarnessWith(t *testing.T, serve core.ServeOptions, scfg transport.ServerConfig, ccfg transport.ClientConfig) (*harness, *transport.Client) {
	t.Helper()
	h := &harness{Stack: newStack(t, e2eSpec(scfg, ccfg)), payloads: make([][]byte, e2eObjects)}
	h.fetcher = h.Remote[""]
	for i := range h.payloads {
		h.payloads[i] = h.Payload(i)
	}
	var err error
	if h.ctrl, err = h.Controller(context.Background(), 2*e2eObjects, serve, 1); err != nil {
		t.Fatal(err)
	}
	h.repair = repair.NewManager(h.Pool, repair.Config{Workers: 2, ScanInterval: 20 * time.Millisecond})
	h.repair.Start()
	t.Cleanup(h.repair.Close)
	return h, h.fetcher.Client
}

// readAndCheck reads fileID through the controller and verifies the bytes
// against the allowed payload set.
func (h *harness) readAndCheck(ctx context.Context, fileID int, allowed ...[]byte) error {
	got, err := h.ctrl.Read(ctx, fileID, h.fetcher)
	if err != nil {
		return fmt.Errorf("read file %d: %w", fileID, err)
	}
	for _, want := range allowed {
		if bytes.Equal(got, want) {
			return nil
		}
	}
	return fmt.Errorf("read file %d: bytes match none of the %d allowed payloads (mixed stripe?)", fileID, len(allowed))
}

func TestScenarios(t *testing.T) {
	scenarios := []struct {
		name  string
		serve core.ServeOptions
		run   func(t *testing.T, h *harness)
	}{
		{name: "overwrite-under-load", run: scenarioOverwriteUnderLoad},
		{name: "write-during-osd-failure", run: scenarioWriteDuringFailure},
		{name: "write-then-degraded-read", run: scenarioWriteThenDegradedRead},
		{
			name:  "hedged-read-during-repair",
			serve: core.ServeOptions{HedgeDelay: 2 * time.Millisecond, HedgeExtra: 2},
			run:   scenarioHedgedReadDuringRepair,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sc.run(t, newHarness(t, sc.serve))
		})
	}
}

// scenarioOverwriteUnderLoad overwrites one hot file repeatedly while
// readers hammer the whole set: every read of the hot file must return a
// complete committed cut, and after the writer quiesces a fresh read serves
// the last one.
func scenarioOverwriteUnderLoad(t *testing.T, h *harness) {
	ctx := context.Background()
	const hot = 0
	const overwrites = 10

	initial := h.payload(hot)
	cuts := make([][]byte, 0, overwrites+1)
	cuts = append(cuts, initial)
	var cutMu sync.Mutex
	allowedCuts := func() [][]byte {
		cutMu.Lock()
		defer cutMu.Unlock()
		return append([][]byte(nil), cuts...)
	}

	var wg sync.WaitGroup
	var writerDone atomic.Bool
	errCh := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < overwrites; i++ {
			cut := make([]byte, e2eSize)
			for j := range cut {
				cut[j] = byte(i+1) ^ byte(j*5)
			}
			cutMu.Lock()
			cuts = append(cuts, cut)
			cutMu.Unlock()
			if err := h.write(ctx, hot, cut); err != nil {
				errCh <- fmt.Errorf("overwrite %d: %w", i, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if writerDone.Load() && i > 3 {
					return
				}
				fileID := i % e2eObjects
				if fileID == hot {
					if err := h.readAndCheck(ctx, hot, allowedCuts()...); err != nil {
						errCh <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
					continue
				}
				if err := h.readAndCheck(ctx, fileID, h.payload(fileID)); err != nil {
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
	h.ctrl.WaitFills()
	if err := h.readAndCheck(ctx, hot, h.payload(hot)); err != nil {
		t.Fatalf("after quiesce: %v", err)
	}
	if stats := h.ctrl.Stats(); stats.Writes != overwrites {
		t.Fatalf("controller recorded %d writes, want %d", stats.Writes, overwrites)
	}
}

// scenarioWriteDuringFailure ingests new content while two OSDs are down
// with chunk loss: staging re-places the affected chunks on live OSDs, the
// write commits, and the new content reads back both degraded and after
// repair heals the pool.
func scenarioWriteDuringFailure(t *testing.T, h *harness) {
	ctx := context.Background()
	h.fail(t, 3, 8)

	cut := make([]byte, e2eSize)
	for j := range cut {
		cut[j] = 0xAB ^ byte(j*11)
	}
	if err := h.write(ctx, 1, cut); err != nil {
		t.Fatalf("write during OSD failure: %v", err)
	}
	if err := h.readAndCheck(ctx, 1, cut); err != nil {
		t.Fatalf("degraded read of fresh write: %v", err)
	}
	// Every chunk of the new stripe must be on a live OSD (staging dodged
	// the down ones).
	locs, err := h.Pool.ChunkLocations(cluster.ObjectName(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if !loc.Alive || !loc.Present {
			t.Fatalf("chunk %d of fresh write landed unreadable (osd %d)", loc.Chunk, loc.OSD.ID)
		}
	}

	// Recovery + repair restores full redundancy for the files that lost
	// chunks; the fresh write stays intact throughout.
	h.recover(t, 3, 8)
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := h.repair.WaitIdle(waitCtx); err != nil {
		t.Fatalf("repair did not drain: %v", err)
	}
	if err := h.readAndCheck(ctx, 1, cut); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
}

// scenarioWriteThenDegradedRead writes new content, then loses n−k OSDs:
// the controller must still decode the new stripe from the survivors (plus
// cache), never the old bytes.
func scenarioWriteThenDegradedRead(t *testing.T, h *harness) {
	ctx := context.Background()
	cut := make([]byte, e2eSize)
	for j := range cut {
		cut[j] = 0x5C ^ byte(j*13)
	}
	if err := h.write(ctx, 2, cut); err != nil {
		t.Fatal(err)
	}
	h.fail(t, 1, 5, 9) // n−k = 3 OSDs down, chunks lost
	for i := 0; i < 4; i++ {
		if err := h.readAndCheck(ctx, 2, cut); err != nil {
			t.Fatalf("degraded read %d: %v", i, err)
		}
	}
	// Reads of every other file must also survive the triple failure.
	for fileID := 0; fileID < e2eObjects; fileID++ {
		if err := h.readAndCheck(ctx, fileID, h.payload(fileID)); err != nil {
			t.Fatal(err)
		}
	}
}

// scenarioHedgedReadDuringRepair loses two OSDs and reads under hedging
// while the repair plane reconstructs the lost chunks concurrently; after
// repair drains, the pool is fully redundant and all content intact.
func scenarioHedgedReadDuringRepair(t *testing.T, h *harness) {
	ctx := context.Background()
	h.fail(t, 2, 6)

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				fileID := (r + i) % e2eObjects
				if err := h.readAndCheck(ctx, fileID, h.payload(fileID)); err != nil {
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

	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := h.repair.WaitIdle(waitCtx); err != nil {
		t.Fatalf("repair did not drain: %v", err)
	}
	if left := len(h.Pool.DegradedObjects()); left != 0 {
		t.Fatalf("%d objects still degraded after repair", left)
	}
	for fileID := 0; fileID < e2eObjects; fileID++ {
		if err := h.readAndCheck(ctx, fileID, h.payload(fileID)); err != nil {
			t.Fatal(err)
		}
	}
}
