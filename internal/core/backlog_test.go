package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
)

// backlogController serves one (n,k)-coded file placed on nodes 0..n-1 of a
// cluster with one node per entry of means (deterministic service of that
// many seconds), with no cache, so every read fetches k chunks.
func backlogController(t *testing.T, means []float64, n, k int, serve ServeOptions) (*Controller, *fakeStore) {
	t.Helper()
	nodes := make([]cluster.Node, len(means))
	for i, m := range means {
		nodes[i] = cluster.Node{ID: 100 + i, Name: fmt.Sprintf("osd-%d", i), Service: queue.Deterministic{Value: m}}
	}
	placement := make([]int, n)
	for i := range placement {
		placement[i] = nodes[i].ID
	}
	clu := &cluster.Cluster{Nodes: nodes, Files: []cluster.File{{
		ID: 0, Name: "f0", SizeBytes: 600, K: k, N: n, Placement: placement, Lambda: 0.01,
	}}}
	ctrl, err := NewControllerWith(clu, 0, optimizer.Options{}, serve, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ctrl.Close() })
	store := newFakeStore()
	meta := ctrl.Files()[0]
	payload := make([]byte, meta.SizeBytes)
	for i := range payload {
		payload[i] = byte(3 * i)
	}
	store.addFile(t, meta, payload)
	if _, err := ctrl.PlanTimeBin([]float64{0.01}); err != nil {
		t.Fatal(err)
	}
	return ctrl, store
}

func uniformMeans(n int, mean float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean
	}
	return out
}

// fetchPath is one of the fetchers the read plane's one fetch path is driven
// through. The tables below run over all of them: launch and completion
// accounting is the same code whoever completes.
type fetchPath struct {
	name string
	// wrap presents a blocking fetcher to the controller over this path.
	wrap func(t *testing.T, f ChunkFetcher) ChunkFetcher
	// inline marks the path whose completions run inside StartFetches: a
	// scenario whose fetcher blocks until the test releases it cannot use it.
	inline bool
}

var fetchPaths = []fetchPath{
	// A blocking fetcher as it is: the controller adapts it (blockingFetches)
	// and runs each fetch on a goroutine of its own.
	{name: "workers", wrap: func(_ *testing.T, f ChunkFetcher) ChunkFetcher { return f }},
	{name: "async", wrap: func(t *testing.T, f ChunkFetcher) ChunkFetcher { return newAsyncFake(t, f, false) }},
	{name: "async-inline", inline: true, wrap: func(t *testing.T, f ChunkFetcher) ChunkFetcher { return newAsyncFake(t, f, true) }},
}

// overFetchPaths runs fn once per fetch path, as a subtest.
func overFetchPaths(t *testing.T, blocks bool, fn func(t *testing.T, path fetchPath)) {
	t.Helper()
	for _, path := range fetchPaths {
		if blocks && path.inline {
			continue
		}
		t.Run(path.name, func(t *testing.T) { fn(t, path) })
	}
}

// candidateNodes runs candidates() once and returns the ranked node
// positions and the Madow draw it started from.
func candidateNodes(ctrl *Controller, need int) (ranked, draw []int) {
	sc := getReadScratch()
	defer putReadScratch(sc)
	ctrl.candidates(sc, ctrl.epoch.Load(), ctrl.files[0], need)
	for _, cand := range sc.cands {
		ranked = append(ranked, cand.node)
	}
	return ranked, append([]int(nil), sc.picks...)
}

// TestCandidatesRankedByBacklog pins what the read plane's node choice is
// made of: the Madow draw when nothing distinguishes the nodes, expected
// work (inflight+1)·E[S] when something does, and never a down node.
func TestCandidatesRankedByBacklog(t *testing.T) {
	const n, k = 5, 2
	hetero := []float64{0.016, 0.004, 0.012, 0.008, 0.020, 0.001} // node 5 holds no chunk
	// Expected orders are functions of the incoming order (the draw, then
	// the rest of the live placement), which differs from trial to trial.
	unchanged := func(incoming []int) []int { return incoming }
	fixed := func(order ...int) func([]int) []int {
		return func([]int) []int { return order }
	}
	sunk := func(nodes ...int) func([]int) []int {
		return func(incoming []int) []int {
			var head, tail []int
			for _, node := range incoming {
				if slices.Contains(nodes, node) {
					tail = append(tail, node)
				} else {
					head = append(head, node)
				}
			}
			return append(head, tail...)
		}
	}
	for _, tc := range []struct {
		name     string
		means    []float64
		inflight map[int]int64 // by node position
		down     []int         // node positions
		want     func(incoming []int) []int
	}{
		{name: "idle homogeneous is the paper's draw", means: uniformMeans(6, 0.004), want: unchanged},
		{name: "backlogged nodes sink in draw order", means: uniformMeans(6, 0.004),
			inflight: map[int]int64{0: 3, 2: 3}, want: sunk(0, 2)},
		{name: "heterogeneous idle cluster prefers fast nodes", means: hetero, want: fixed(1, 3, 2, 0, 4)},
		{name: "backlog outweighs speed", means: hetero,
			inflight: map[int]int64{1: 9}, want: fixed(3, 2, 0, 4, 1)},
		{name: "down nodes never appear", means: hetero, down: []int{1, 3}, want: fixed(2, 0, 4)},
		{name: "an idle down node loses to busy live ones", means: uniformMeans(6, 0.004),
			inflight: map[int]int64{0: 5, 1: 5, 2: 5, 3: 5}, down: []int{4}, want: unchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, _ := backlogController(t, tc.means, n, k, ServeOptions{})
			for _, node := range tc.down {
				ctrl.SetNodeDown(nodeIDAt(ctrl.epoch.Load().clu, node))
			}
			for node, v := range tc.inflight {
				ctrl.nodeInFlight[node].Store(v)
			}
			for trial := 0; trial < 50; trial++ {
				ranked, draw := candidateNodes(ctrl, k)
				incoming := append([]int(nil), draw...)
				for node := 0; node < n; node++ {
					if !slices.Contains(draw, node) && !slices.Contains(tc.down, node) {
						incoming = append(incoming, node)
					}
				}
				if want := tc.want(incoming); !slices.Equal(ranked, want) {
					t.Fatalf("candidates %v, want %v (draw %v)", ranked, want, draw)
				}
			}
		})
	}
}

// TestPicksReorderedCounter: the counter moves exactly when the ranking
// changes the fetched set, not when it merely permutes the draw or the
// backups.
func TestPicksReorderedCounter(t *testing.T) {
	const need = 2
	ctrl, _ := backlogController(t, uniformMeans(5, 0.004), 5, need, ServeOptions{})
	idlePair := func(nodes []int) bool {
		return len(nodes) == 2 && slices.Contains(nodes, 3) && slices.Contains(nodes, 4)
	}
	for i := 0; i < 50; i++ {
		candidateNodes(ctrl, need)
	}
	if got := ctrl.Stats().PicksReordered; got != 0 {
		t.Fatalf("PicksReordered = %d on an idle homogeneous cluster, want 0", got)
	}
	for node := 0; node < 3; node++ {
		ctrl.nodeInFlight[node].Store(2)
	}
	var want int64
	for i := 0; i < 200; i++ {
		ranked, draw := candidateNodes(ctrl, need)
		if !idlePair(ranked[:need]) {
			t.Fatalf("fetched set %v with nodes 0-2 backlogged, want the idle nodes 3 and 4", ranked[:need])
		}
		if !idlePair(draw) {
			want++
		}
	}
	if want == 0 {
		t.Fatal("every draw already was the idle pair; the scenario shows nothing")
	}
	if got := ctrl.Stats().PicksReordered; got != want {
		t.Fatalf("PicksReordered = %d, want %d (draws that were not the idle pair)", got, want)
	}
}

// waitNodesIdle waits for every per-node in-flight counter to return to
// zero, failing on a counter that went negative or never drained.
func waitNodesIdle(t *testing.T, ctrl *Controller) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := false
		for node, v := range ctrl.NodeInFlight() {
			if v < 0 {
				t.Fatalf("node %d in-flight counter is %d", node, v)
			}
			busy = busy || v > 0
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight counters never drained: %v", ctrl.NodeInFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStuckNodeIsAvoided parks N fetches on one node behind a blocking
// fetcher. While enough other live nodes exist no read may touch that node;
// once they do not, reads fall back to it rather than fail.
func TestStuckNodeIsAvoided(t *testing.T) {
	overFetchPaths(t, true, testStuckNodeIsAvoided)
}

func testStuckNodeIsAvoided(t *testing.T, path fetchPath) {
	const n, k, stuck, parked = 5, 2, 2, 3
	ctrl, fake := backlogController(t, uniformMeans(n, 0.004), n, k, ServeOptions{})
	store := path.wrap(t, fake)
	ctx := context.Background()
	meta := ctrl.Files()[0]
	stuckID := nodeIDAt(ctrl.epoch.Load().clu, stuck)

	release := make(chan struct{})
	var entered atomic.Int64
	blocking := path.wrap(t, FetcherFunc(func(context.Context, int, int, int) ([]byte, error) {
		entered.Add(1)
		<-release
		return nil, errors.New("released")
	}))
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A fan-out of one over the stuck node alone: launched and
			// completed the way a read's fetches are.
			sc := getReadScratch()
			defer putReadScratch(sc)
			sc.cands = append(sc.cands[:0], fetchCandidate{chunkIndex: chunkIndexOnNode(meta, stuck), node: stuck, nodeID: stuckID})
			_, _ = ctrl.fetchParallel(ctx, sc, blocking, 0, 1, 1, 0) // the outcome is the injected error
		}()
	}
	for entered.Load() < parked {
		time.Sleep(time.Millisecond)
	}
	if got := ctrl.NodeInFlight()[stuckID]; got != parked {
		t.Fatalf("node %d shows %d fetches in flight, want %d", stuck, got, parked)
	}

	for i := 0; i < 200; i++ {
		got, err := ctrl.Read(ctx, 0, store)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fake.data[0]) {
			t.Fatal("read returned wrong data")
		}
	}
	if got := fake.fetchCount(stuckID); got != 0 {
		t.Fatalf("%d fetches went to the node holding %d stuck fetches while %d idle nodes held the file", got, parked, n-1)
	}

	// Leave only the stuck node and one other: k = 2 needs both.
	for node := 0; node < n; node++ {
		if node != stuck && node != 0 {
			ctrl.SetNodeDown(nodeIDAt(ctrl.epoch.Load().clu, node))
		}
	}
	if _, err := ctrl.Read(ctx, 0, store); err != nil {
		t.Fatalf("read with only the backlogged node left to complete k: %v", err)
	}
	if got := fake.fetchCount(stuckID); got != 1 {
		t.Fatalf("fetches on the backlogged node = %d, want 1 once it is needed", got)
	}

	close(release)
	wg.Wait()
	waitNodesIdle(t, ctrl)
}

// versionFlipFetcher reports stripe version 1 for its first fetch and 2 for
// all later ones: the first read attempt sees a mixed stripe and retries.
type versionFlipFetcher struct {
	*fakeStore
	calls atomic.Int64
	// onCall, when set, is told the ordinal of every fetch as it starts.
	onCall func(n int64)
}

func (f *versionFlipFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, StripeInfo, error) {
	n := f.calls.Add(1)
	if f.onCall != nil {
		f.onCall(n)
	}
	version := uint64(2)
	if n == 1 {
		version = 1
	}
	data, err := f.fakeStore.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	return data, StripeInfo{Version: version, Size: len(f.data[fileID])}, err
}

// TestNodeInFlightReturnsToZero: whatever way a read ends, every fetch it
// started is counted out again when that fetch returns — no sooner (a hedge
// loser keeps its node busy) and no later — and the read's scratch lease is
// balanced, also when completions arrive after the read gave up.
func TestNodeInFlightReturnsToZero(t *testing.T) {
	ctx := context.Background()
	// settled waits for the stragglers, then checks the leases.
	settled := func(t *testing.T, ctrl *Controller, leases int64) {
		t.Helper()
		waitNodesIdle(t, ctrl)
		if got := ReadScratchPool().Outstanding(); got != leases {
			t.Fatalf("read scratch leases: outstanding %d -> %d", leases, got)
		}
	}

	t.Run("success", func(t *testing.T) {
		overFetchPaths(t, false, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, fake := backlogController(t, uniformMeans(5, 0.004), 5, 3, ServeOptions{})
			store := path.wrap(t, fake)
			for i := 0; i < 20; i++ {
				if _, err := ctrl.Read(ctx, 0, store); err != nil {
					t.Fatal(err)
				}
			}
			settled(t, ctrl, leases)
		})
	})

	t.Run("fetch error and failover", func(t *testing.T) {
		overFetchPaths(t, false, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, fake := backlogController(t, uniformMeans(5, 0.004), 5, 3, ServeOptions{})
			fake.fail[[2]int{0, 1}] = errors.New("bad sector")
			fake.fail[[2]int{0, 3}] = errors.New("bad sector")
			store := path.wrap(t, fake)
			for i := 0; i < 20; i++ {
				if _, err := ctrl.Read(ctx, 0, store); err != nil {
					t.Fatal(err)
				}
			}
			if ctrl.Stats().FetchFailovers == 0 {
				t.Fatal("no failover happened")
			}
			settled(t, ctrl, leases)
		})
	})

	t.Run("hedge win with the loser still running", func(t *testing.T) {
		overFetchPaths(t, true, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 2,
				ServeOptions{HedgeDelay: 2 * time.Millisecond, HedgeExtra: 1})
			release := make(chan struct{})
			var calls atomic.Int64
			var loserID atomic.Int64
			// The read's first fetch hangs, deaf to cancellation, until released.
			fetcher := path.wrap(t, FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
				if calls.Add(1) == 1 {
					loserID.Store(int64(nodeID))
					<-release
				}
				return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
			}))
			if _, err := ctrl.Read(ctx, 0, fetcher); err != nil {
				t.Fatal(err)
			}
			if ctrl.Stats().HedgeWins != 1 {
				t.Fatalf("stats = %+v, want the read completed by one hedge win", ctrl.Stats())
			}
			inflight := ctrl.NodeInFlight()
			for node, v := range inflight {
				want := int64(0)
				if node == int(loserID.Load()) {
					want = 1
				}
				if v != want {
					t.Fatalf("in flight after the read returned = %v, want only the hedge loser on node %d", inflight, loserID.Load())
				}
			}
			// The abandoned fetch still counts as backlog: the next reads avoid
			// its node.
			before := store.fetchCount(int(loserID.Load()))
			for i := 0; i < 20; i++ {
				if _, err := ctrl.Read(ctx, 0, fetcher); err != nil {
					t.Fatal(err)
				}
			}
			if after := store.fetchCount(int(loserID.Load())); after != before {
				t.Fatalf("%d fetches reached the node still busy with the hedge loser", after-before)
			}
			close(release)
			settled(t, ctrl, leases)
		})
	})

	t.Run("context cancellation", func(t *testing.T) {
		overFetchPaths(t, true, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, _ := backlogController(t, uniformMeans(5, 0.004), 5, 3, ServeOptions{})
			cctx, cancel := context.WithCancel(ctx)
			// Every fetch outlives the read: it returns some time after the
			// cancellation the read leaves on.
			release := make(chan struct{})
			blocking := path.wrap(t, FetcherFunc(func(ctx context.Context, _, _, _ int) ([]byte, error) {
				cancel()
				<-release
				return nil, ctx.Err()
			}))
			if _, err := ctrl.Read(cctx, 0, blocking); !errors.Is(err, context.Canceled) {
				t.Fatalf("expected context.Canceled, got %v", err)
			}
			busy := int64(0)
			for _, v := range ctrl.NodeInFlight() {
				busy += v
			}
			if busy != 3 {
				t.Fatalf("%d fetches in flight after the read gave up, want all 3 still counted", busy)
			}
			if got := ReadScratchPool().Outstanding(); got != leases {
				t.Fatalf("read scratch leases with stragglers outstanding: %d -> %d (the scratch is retired, not leaked)", leases, got)
			}
			close(release)
			settled(t, ctrl, leases)
		})
	})

	// The two places that ask the context whether a failure is worth acting
	// on. The cancellation lands while the attempt's fetches complete, so the
	// read leaves either there or in the fan-out's own wait on ctx.Done —
	// what must hold either way is that nothing more is launched.
	t.Run("cancelled before the retry of a failed attempt", func(t *testing.T) {
		overFetchPaths(t, false, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 3, ServeOptions{})
			for i := 0; i < 20; i++ {
				cctx, cancel := context.WithCancel(ctx)
				// The first attempt sees a mixed stripe, which a retry would
				// cure; its last fetch cancels the read.
				flip := &versionFlipFetcher{fakeStore: store, onCall: func(n int64) {
					if n == 3 {
						cancel()
					}
				}}
				if _, err := ctrl.Read(cctx, 0, path.wrap(t, flip)); err == nil {
					t.Fatal("read of a mixed stripe succeeded")
				}
				waitNodesIdle(t, ctrl)
				if calls := flip.calls.Load(); calls != 3 || ctrl.Stats().ReadRetries != 0 {
					t.Fatalf("%d fetches, %d retries after cancellation; want the first attempt's 3 and no retry", calls, ctrl.Stats().ReadRetries)
				}
			}
			settled(t, ctrl, leases)
		})
	})

	t.Run("fetch error after cancellation", func(t *testing.T) {
		overFetchPaths(t, false, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 3, ServeOptions{})
			for i := 0; i < 20; i++ {
				cctx, cancel := context.WithCancel(ctx)
				var calls atomic.Int64
				fetcher := path.wrap(t, FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
					if calls.Add(1) == 1 {
						cancel()
						return nil, errors.New("bad sector")
					}
					return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
				}))
				if _, err := ctrl.Read(cctx, 0, fetcher); !errors.Is(err, context.Canceled) {
					t.Fatalf("expected context.Canceled, got %v", err)
				}
				waitNodesIdle(t, ctrl)
				if calls.Load() != 3 || ctrl.Stats().FetchFailovers != 0 {
					t.Fatalf("%d fetches, %d failovers; want no failover launched for a cancelled read", calls.Load(), ctrl.Stats().FetchFailovers)
				}
			}
			settled(t, ctrl, leases)
		})
	})

	t.Run("stripe-version retry", func(t *testing.T) {
		overFetchPaths(t, false, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 3, ServeOptions{})
			got, err := ctrl.Read(ctx, 0, path.wrap(t, &versionFlipFetcher{fakeStore: store}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, store.data[0]) {
				t.Fatal("retried read returned wrong data")
			}
			if ctrl.Stats().ReadRetries != 1 {
				t.Fatalf("ReadRetries = %d, want 1", ctrl.Stats().ReadRetries)
			}
			settled(t, ctrl, leases)
		})
	})

	t.Run("concurrent mix", func(t *testing.T) {
		overFetchPaths(t, false, func(t *testing.T, path fetchPath) {
			leases := ReadScratchPool().Outstanding()
			ctrl, store := backlogController(t, uniformMeans(5, 0.004), 5, 3,
				ServeOptions{HedgeDelay: time.Millisecond, HedgeExtra: 1})
			flaky := path.wrap(t, FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
				switch chunkIndex {
				case 0:
					return nil, errors.New("injected")
				case 1:
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(3 * time.Millisecond):
					}
				}
				return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
			}))
			var wg sync.WaitGroup
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						if _, err := ctrl.Read(ctx, 0, flaky); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			settled(t, ctrl, leases)
		})
	})
}
