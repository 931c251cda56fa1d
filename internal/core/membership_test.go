package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
)

func TestSetNodeDownExcludesNodeFromFetches(t *testing.T) {
	ctrl, store := buildController(t, 6, 0, 0.01)
	defer ctrl.Close()
	ctx := context.Background()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}

	if !ctrl.SetNodeDown(2) {
		t.Fatal("SetNodeDown(2) returned false")
	}
	if ctrl.SetNodeDown(2) {
		t.Fatal("second SetNodeDown(2) should be a no-op")
	}
	if got := ctrl.DownNodes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DownNodes = %v", got)
	}
	if ctrl.SetNodeDown(99) {
		t.Fatal("unknown node accepted")
	}

	// Every file has n=3 chunks over 4 nodes, so all reads can avoid node 2.
	for i := 0; i < len(ctrl.Files()); i++ {
		for rep := 0; rep < 20; rep++ {
			got, err := ctrl.Read(ctx, i, store)
			if err != nil {
				t.Fatalf("read %d with node 2 down: %v", i, err)
			}
			store.mu.Lock()
			want := store.data[i]
			store.mu.Unlock()
			if !bytes.Equal(got, want) {
				t.Fatalf("file %d corrupted", i)
			}
		}
	}
	store.mu.Lock()
	fetches := store.fetches[2]
	store.mu.Unlock()
	if fetches != 0 {
		t.Fatalf("%d fetches hit the down node", fetches)
	}
	if stats := ctrl.Stats(); stats.MembershipChanges != 1 {
		t.Fatalf("MembershipChanges = %d, want 1", stats.MembershipChanges)
	}

	// Bring it back: fetches may target it again.
	if !ctrl.SetNodeUp(2) {
		t.Fatal("SetNodeUp(2) returned false")
	}
	if got := ctrl.DownNodes(); len(got) != 0 {
		t.Fatalf("DownNodes = %v after SetNodeUp", got)
	}
}

// degradedTestCluster gives every file the same full 4-node placement with
// a (4,3) code, so taking 2 nodes down leaves fewer than k=3 chunks alive.
func degradedTestCluster(numFiles int) *cluster.Cluster {
	nodes := make([]cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: i, Name: fmt.Sprintf("osd-%d", i), Service: queue.NewExponential(1)}
	}
	files := make([]cluster.File, numFiles)
	for i := range files {
		files[i] = cluster.File{
			ID: i, Name: fmt.Sprintf("f%d", i), SizeBytes: 300,
			K: 3, N: 4, Placement: []int{0, 1, 2, 3}, Lambda: 0.01,
		}
	}
	return &cluster.Cluster{Nodes: nodes, Files: files}
}

func TestDegradedReadAccounting(t *testing.T) {
	clu := degradedTestCluster(3)
	ctrl, err := NewController(clu, 3*len(clu.Files), optimizer.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	store := newFakeStore()
	rng := rand.New(rand.NewSource(5))
	for _, meta := range ctrl.Files() {
		payload := make([]byte, meta.SizeBytes)
		rng.Read(payload)
		store.addFile(t, meta, payload)
	}
	ctx := context.Background()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	// Materialise the planned cache (capacity covers k chunks per file).
	if err := ctrl.PrefetchCache(ctx, store); err != nil {
		t.Fatal(err)
	}

	// Healthy cache-only reads are not degraded.
	if _, err := ctrl.Read(ctx, 0, store); err != nil {
		t.Fatal(err)
	}
	if stats := ctrl.Stats(); stats.DegradedReads != 0 || stats.CacheOnlyReads == 0 {
		t.Fatalf("healthy cache read misclassified: %+v", stats)
	}

	// Take 2 of 4 nodes down: storage alone has only 2 < k=3 chunks, so
	// successful reads are cache rescues and land in the degraded histogram.
	ctrl.SetNodeDown(0)
	ctrl.SetNodeDown(1)
	if _, err := ctrl.Read(ctx, 0, store); err != nil {
		t.Fatalf("read with storage short and warm cache: %v", err)
	}
	stats := ctrl.Stats()
	if stats.DegradedReads == 0 || stats.CacheRescues == 0 {
		t.Fatalf("cache rescue not counted: %+v", stats)
	}
	if lat := ctrl.ReadLatency(); lat.Degraded.Count == 0 {
		t.Fatal("degraded histogram empty")
	}
}

// TestFailoverCountsAsDegraded: the first fetch of file 0 fails, so the
// first read fails over to the file's one backup chunk. It must succeed
// with the right bytes and be counted as one failover and one degraded read.
func TestFailoverCountsAsDegraded(t *testing.T) {
	ctrl, store := buildController(t, 4, 0, 0.01)
	defer ctrl.Close()
	ctx := context.Background()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	var failed atomic.Bool
	fetcher := FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		if fileID == 0 && failed.CompareAndSwap(false, true) {
			return nil, errors.New("injected: first fetch of file 0")
		}
		return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	})
	got, err := ctrl.Read(ctx, 0, fetcher)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, store.data[0]) {
		t.Fatal("failed-over read returned wrong bytes")
	}
	stats := ctrl.Stats()
	if stats.FetchFailovers != 1 || stats.DegradedReads != 1 {
		t.Fatalf("failovers %d, degraded reads %d, want 1 and 1", stats.FetchFailovers, stats.DegradedReads)
	}
	if lat := ctrl.ReadLatency(); lat.Degraded.Count != 1 {
		t.Fatalf("degraded histogram holds %d reads, want 1", lat.Degraded.Count)
	}
}

func TestPlanTimeBinExcludesDownNodes(t *testing.T) {
	ctrl, _ := buildController(t, 8, 4, 0.01)
	defer ctrl.Close()
	ctrl.SetNodeDown(1)
	plan, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range plan.Pi {
		if row[1] != 0 {
			t.Fatalf("plan places probability %v on down node 1 for file %d", row[1], i)
		}
	}
}

func TestMembershipFlipsDuringConcurrentReads(t *testing.T) {
	ctrl, store := buildController(t, 8, 0, 0.01)
	defer ctrl.Close()
	ctx := context.Background()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ctrl.Read(ctx, rng.Intn(8), store); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	// Flip membership of nodes 0..3 rapidly while reads run. At most one
	// node is down at a time, so every (3,2) file keeps >= 2 live chunks.
	for i := 0; i < 200; i++ {
		node := i % 4
		ctrl.SetNodeDown(node)
		time.Sleep(100 * time.Microsecond)
		ctrl.SetNodeUp(node)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("read failed during membership flips: %v", err)
	default:
	}
}

// TestSharedSchedulerKeepsControllersApart: every controller runs an adaptive
// loop of its own. A membership change on one re-plans that one and not its
// neighbour, and once Close has returned the closed one never re-plans again —
// a later membership change leaves its kick unread — while its neighbour still
// does.
func TestSharedSchedulerKeepsControllersApart(t *testing.T) {
	t.Run("replan", func(t *testing.T) {
		serve := ServeOptions{ReplanInterval: time.Hour}
		a, _ := buildControllerWith(t, 4, 4, 0.05, serve)
		b, _ := buildControllerWith(t, 4, 4, 0.05, serve)
		defer a.Close()
		defer b.Close()
		for _, c := range []*Controller{a, b} {
			if _, err := c.PlanTimeBin(ctrlLambdas(c)); err != nil {
				t.Fatal(err)
			}
		}
		waitReplans := func(c *Controller, want int64) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); c.Stats().AutoReplans < want; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("controller never re-planned (%d auto-replans, want %d)", c.Stats().AutoReplans, want)
				}
			}
		}

		a.SetNodeDown(2)
		waitReplans(a, 1)
		if got, queued := b.Stats().AutoReplans, len(b.replanKick); got != 0 || queued != 0 {
			t.Fatalf("a's membership change reached b: %d auto-replans, %d kicks queued", got, queued)
		}

		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		a.SetNodeUp(2)
		b.SetNodeDown(2)
		waitReplans(b, 1)
		if got := a.Stats().AutoReplans; got != 1 {
			t.Fatalf("closed controller a re-planned again: %d auto-replans", got)
		}
		if queued := len(a.replanKick); queued != 1 {
			t.Fatalf("closed controller a's kick was read (%d queued): its loop outlived Close", queued)
		}
	})
}
