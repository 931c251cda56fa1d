package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sprout/internal/cluster"
	"sprout/internal/optimizer"
	"sprout/internal/queue"
	"sprout/internal/tick"
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
	ctrl, err := NewController(clu, 3*len(clu.Files), optimizer.Options{MaxOuterIter: 6}, 1)
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

func TestFailoverCountsAsDegraded(t *testing.T) {
	ctrl, store := buildController(t, 4, 0, 0.01)
	defer ctrl.Close()
	ctx := context.Background()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	// Make one chunk of file 0 fail so the read fails over to its backup.
	store.mu.Lock()
	store.fail[[2]int{0, 0}] = errors.New("injected")
	store.mu.Unlock()
	sawFailover := false
	for i := 0; i < 30 && !sawFailover; i++ {
		if _, err := ctrl.Read(ctx, 0, store); err != nil {
			t.Fatal(err)
		}
		sawFailover = ctrl.Stats().FetchFailovers > 0
	}
	if !sawFailover {
		t.Skip("scheduler never targeted the failing chunk for this seed")
	}
	stats := ctrl.Stats()
	if stats.DegradedReads == 0 {
		t.Fatalf("failover read not counted degraded: %+v", stats)
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

// TestSharedSchedulerKeepsControllersApart: controllers borrowing one
// scheduler each keep jobs of their own. A membership change on one re-plans
// that one and not its neighbour, closing one leaves the other's jobs
// registered and running, and closing both leaves the scheduler empty.
func TestSharedSchedulerKeepsControllersApart(t *testing.T) {
	for _, tc := range []struct {
		name    string
		serve   ServeOptions
		perCtrl int
	}{
		{"replan", ServeOptions{ReplanInterval: time.Hour}, 2},
		{"replan+admission", ServeOptions{
			ReplanInterval: time.Hour,
			Admission:      &AdmissionConfig{LatencyTarget: time.Second},
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := tick.New()
			defer sched.Close()
			tc.serve.Tick = sched
			a, _ := buildControllerWith(t, 4, 4, 0.05, tc.serve)
			b, _ := buildControllerWith(t, 4, 4, 0.05, tc.serve)
			defer a.Close()
			defer b.Close()
			if got := sched.NumJobs(); got != 2*tc.perCtrl {
				t.Fatalf("%d jobs registered by two controllers, want %d", got, 2*tc.perCtrl)
			}
			for _, c := range []*Controller{a, b} {
				if _, err := c.PlanTimeBin(ctrlLambdas(c)); err != nil {
					t.Fatal(err)
				}
			}
			// replansSettle waits for want auto-replans on c, then for one more
			// pass of the scheduler, so a kick that landed on the wrong
			// controller has run too.
			replansSettle := func(c *Controller, want int64) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); c.Stats().AutoReplans < want; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("controller never re-planned (%d auto-replans, want %d)", c.Stats().AutoReplans, want)
					}
				}
				passed := make(chan struct{})
				marker := sched.Register(0, func(time.Time) { close(passed) })
				sched.Kick(marker)
				<-passed
				sched.Unregister(marker)
			}

			a.SetNodeDown(2)
			replansSettle(a, 1)
			if got := b.Stats().AutoReplans; got != 0 {
				t.Fatalf("a's membership change re-planned b %d times", got)
			}

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sched.NumJobs(); got != tc.perCtrl {
				t.Fatalf("%d jobs left after closing a, want b's %d", got, tc.perCtrl)
			}
			b.SetNodeDown(2)
			replansSettle(b, 1)
			if got := a.Stats().AutoReplans; got != 1 {
				t.Fatalf("closed controller a re-planned again: %d auto-replans", got)
			}

			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sched.NumJobs(); got != 0 {
				t.Fatalf("%d jobs left on the borrowed scheduler after closing both", got)
			}
		})
	}
}
