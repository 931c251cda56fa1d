package repair

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sprout/internal/objstore"
	"sprout/internal/queue"
)

func repairTestPool(t *testing.T, objects int) (*objstore.Cluster, *objstore.Pool, map[string][]byte) {
	t.Helper()
	c, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      10,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: 1 << 10,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("ec", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	payloads := make(map[string][]byte, objects)
	for i := 0; i < objects; i++ {
		payload := make([]byte, 8<<10)
		rng.Read(payload)
		name := fmt.Sprintf("obj-%03d", i)
		if _, err := pool.PutV(ctx, name, payload); err != nil {
			t.Fatal(err)
		}
		payloads[name] = payload
	}
	return c, pool, payloads
}

func TestQueuePriorityAndDedup(t *testing.T) {
	q := newRepairQueue()
	if !q.push("b", 0, 5, 0) {
		t.Fatal("push rejected")
	}
	if !q.push("a", 1, 2, 0) {
		t.Fatal("push rejected")
	}
	if !q.push("c", 2, 4, 0) {
		t.Fatal("push rejected")
	}
	if !q.push("d", 0, 4, 0) {
		t.Fatal("push rejected")
	}
	if q.push("a", 1, 2, 0) {
		t.Fatal("duplicate chunk accepted")
	}
	// Fewest survivors first; equally exposed chunks in arrival order.
	for i, want := range []string{"a", "c", "d", "b"} {
		if it := q.pop(); it.object != want {
			t.Fatalf("pop %d = %q, want %q", i, it.object, want)
		}
	}
	// A popped chunk stays deduplicated until its repair attempt finishes:
	// scans racing an in-flight repair cannot enqueue duplicates.
	if q.push("a", 1, 2, 0) {
		t.Fatal("re-push accepted while repair in flight")
	}
	q.done("a", 1)
	if !q.push("a", 1, 2, 0) {
		t.Fatal("re-push after done rejected")
	}
	q.close()
	// Closed queue drains remaining items, then yields nil.
	if it := q.pop(); it == nil || it.object != "a" {
		t.Fatal("closed queue dropped pending item")
	}
	if it := q.pop(); it != nil {
		t.Fatalf("pop on closed empty queue = %+v", it)
	}
	if q.push("x", 0, 1, 0) {
		t.Fatal("push accepted after close")
	}
}

// TestQueueTenantWeightTieBreak pins the order among chunks of different
// tenants: no tenant weight reorders the queue, so equally exposed chunks
// repair in arrival order whoever owns them, and fewer survivors beats
// arrival order — durability alone decides.
func TestQueueTenantWeightTieBreak(t *testing.T) {
	q := newRepairQueue()
	q.push("bronze-1", 0, 3, 0)
	q.push("gold-1", 0, 3, 0)
	q.push("silver-1", 0, 3, 0)
	q.push("bronze-exposed", 0, 2, 0) // fewer survivors goes first
	q.push("gold-2", 1, 3, 0)

	want := []string{"bronze-exposed", "bronze-1", "gold-1", "silver-1", "gold-2"}
	for i, name := range want {
		it := q.pop()
		if it == nil || it.object != name {
			t.Fatalf("pop %d = %+v, want %q", i, it, name)
		}
		q.done(it.object, it.chunk)
	}
	q.close()
}

func TestRepairRestoresRedundancy(t *testing.T) {
	c, pool, payloads := repairTestPool(t, 12)
	ctx := context.Background()

	// Kill two OSDs with chunk loss.
	if err := c.FailOSDs(true, 1, 4); err != nil {
		t.Fatal(err)
	}
	lostObjects := len(pool.DegradedObjects())
	if lostObjects == 0 {
		t.Fatal("no degradation after killing two OSDs")
	}

	mgr := NewManager(pool, Config{Workers: 3, ScanInterval: 5 * time.Millisecond})
	mgr.Start()
	defer mgr.Close()
	mgr.Kick()

	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for len(pool.DegradedObjects()) > 0 {
		if err := waitCtx.Err(); err != nil {
			t.Fatalf("repair did not converge: %d degraded objects left", len(pool.DegradedObjects()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats := mgr.Stats()
	if stats.ChunksRepaired == 0 {
		t.Fatal("no chunks repaired")
	}
	// Every object decodes to its original payload.
	for name, want := range payloads {
		got, err := pool.Get(ctx, name)
		if err != nil {
			t.Fatalf("get %s after repair: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("object %s corrupted by repair", name)
		}
	}
	// Recovered OSDs get promoted once the pool is healthy again.
	if err := c.RecoverOSDs(1, 4); err != nil {
		t.Fatal(err)
	}
	waitCtx2, cancel2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancel2()
	for {
		osd1, _ := c.OSD(1)
		osd4, _ := c.OSD(4)
		if osd1.State() == objstore.StateUp && osd4.State() == objstore.StateUp {
			break
		}
		if err := waitCtx2.Err(); err != nil {
			t.Fatalf("recovering OSDs never promoted: %v / %v", osd1.State(), osd4.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRepairDefersWhenTooFewSurvivors(t *testing.T) {
	c, pool, _ := repairTestPool(t, 4)
	// Kill enough OSDs that some object has fewer than k=4 survivors.
	if err := c.FailOSDs(true, 0, 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	var target string
	for _, d := range pool.DegradedObjects() {
		if d.Surviving < 4 {
			target = d.Object
			break
		}
	}
	if target == "" {
		t.Skip("no object lost enough chunks for this seed")
	}
	mgr := NewManager(pool, Config{Workers: 1})
	mgr.Start()
	defer mgr.Close()
	mgr.ScanOnce()
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mgr.WaitIdle(waitCtx); err != nil {
		t.Fatal(err)
	}
	stats := mgr.Stats()
	if stats.Deferred == 0 {
		t.Fatalf("expected deferred repairs, got %+v", stats)
	}
	// Bring the OSDs back without loss having been repaired elsewhere: the
	// data is gone from them, so the object stays degraded until the next
	// scan finds enough survivors — which it never will here. The deferral
	// path simply must not spin or crash.
	if stats.ChunksRepaired > 0 && len(pool.DegradedObjects()) == 0 {
		t.Fatal("unrecoverable object reported repaired")
	}
}

func TestRepairUnderConcurrentReads(t *testing.T) {
	c, pool, payloads := repairTestPool(t, 10)
	ctx := context.Background()

	var stop atomic.Bool
	var wg sync.WaitGroup
	readErrs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				name := fmt.Sprintf("obj-%03d", rng.Intn(10))
				got, err := pool.Get(ctx, name)
				if err != nil {
					select {
					case readErrs <- fmt.Errorf("%s: %w", name, err):
					default:
					}
					continue
				}
				if !bytes.Equal(got, payloads[name]) {
					select {
					case readErrs <- fmt.Errorf("%s corrupted", name):
					default:
					}
				}
			}
		}(w)
	}

	mgr := NewManager(pool, Config{Workers: 2, ScanInterval: 2 * time.Millisecond})
	mgr.Start()
	if err := c.FailOSDs(true, 2); err != nil {
		t.Fatal(err)
	}
	mgr.Kick()
	deadline := time.Now().Add(10 * time.Second)
	for len(pool.DegradedObjects()) > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	mgr.Close()

	if left := len(pool.DegradedObjects()); left > 0 {
		t.Fatalf("%d degraded objects left", left)
	}
	// Reads during a (7,4) single-OSD failure must all have succeeded.
	select {
	case err := <-readErrs:
		t.Fatalf("read error during repair: %v", err)
	default:
	}
}

// TestKickOnlyScan: with ScanInterval zero the scan loop scans only when
// kicked. A Kick before Start is dropped, every Kick after it runs one scan,
// and after Close no Kick scans again.
func TestKickOnlyScan(t *testing.T) {
	_, pool, _ := repairTestPool(t, 4)
	mgr := NewManager(pool, Config{Workers: 1})
	mgr.Kick()
	mgr.Start()
	defer mgr.Close()
	settle := func() { time.Sleep(20 * time.Millisecond) }
	settle()
	if n := mgr.Stats().Scans; n != 0 {
		t.Fatalf("%d scans after a Kick before Start, want 0", n)
	}
	for want := int64(1); want <= 2; want++ {
		mgr.Kick()
		for deadline := time.Now().Add(5 * time.Second); mgr.Stats().Scans < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("Kick %d never scanned (%d scans)", want, mgr.Stats().Scans)
			}
		}
	}
	settle()
	if n := mgr.Stats().Scans; n != 2 {
		t.Fatalf("%d scans after two Kicks and no period, want 2", n)
	}
	mgr.Close()
	mgr.Kick()
	settle()
	if n := mgr.Stats().Scans; n != 2 {
		t.Fatalf("%d scans after a Kick past Close, want 2", n)
	}
}
