package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sprout/internal/queue"
)

func fastServices() []queue.Dist {
	return []queue.Dist{queue.Deterministic{Value: 0.0002}}
}

func testCluster(t *testing.T, cacheBytes int64) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		NumOSDs:            6,
		Services:           fastServices(),
		RefChunkSize:       1 << 10,
		CacheService:       queue.Deterministic{Value: 0.00001},
		CacheCapacityBytes: cacheBytes,
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOSDServiceTimeline: an OSD serves at exactly its configured rate. A
// queue of requests takes the sum of their service times, not that sum plus
// every timer's late wake-up, and never less; a cancelled service frees the
// OSD at the moment it gives up.
func TestOSDServiceTimeline(t *testing.T) {
	t.Run("queue drains at the configured rate", func(t *testing.T) {
		const (
			requests = 40
			service  = 2500 * time.Microsecond
		)
		osd := NewOSD(0, queue.Deterministic{Value: service.Seconds()}, 0, 1)
		osd.chunks["c"] = make([]byte, 1024)
		ctx := context.Background()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < requests; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := osd.GetChunk(ctx, "c"); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		want := requests * service
		if elapsed < want || elapsed > want+10*time.Millisecond {
			t.Fatalf("%d queued %v reads took %v, want [%v, %v]", requests, service, elapsed, want, want+10*time.Millisecond)
		}
		if served, busy := osd.Stats(); served != requests || busy != want {
			t.Fatalf("Stats = %d served, %v busy; want %d, %v (the sampled service, not the wall clock)", served, busy, requests, want)
		}
	})

	t.Run("cancelled service frees the OSD", func(t *testing.T) {
		// 2 ms per KiB: the 25 KiB chunk takes 50 ms, the 1 KiB one 2 ms.
		osd := NewOSD(0, queue.Deterministic{Value: 0.002}, 1024, 1)
		osd.chunks["big"] = make([]byte, 25*1024)
		osd.chunks["small"] = make([]byte, 1024)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		if _, err := osd.GetChunk(ctx, "big"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("50 ms read under a 5 ms deadline: %v", err)
		}
		if _, err := osd.GetChunk(context.Background(), "small"); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed >= 25*time.Millisecond {
			t.Fatalf("the read after a service cancelled at 5 ms finished at %v: the cancelled 50 ms still held the OSD", elapsed)
		}
	})
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{NumOSDs: 0, Services: fastServices()}); err == nil {
		t.Fatal("expected error for zero OSDs")
	}
	if _, err := NewCluster(ClusterConfig{NumOSDs: 3}); err == nil {
		t.Fatal("expected error for missing services")
	}
}

func TestPoolPutGetRoundTrip(t *testing.T) {
	c := testCluster(t, 0)
	pool, err := c.CreatePool("ec74", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, 10*1024)
	rng.Read(payload)
	ctx := context.Background()
	if _, err := pool.PutV(ctx, "obj1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := pool.Get(ctx, "obj1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round-trip mismatch")
	}
	size, err := pool.ObjectSize("obj1")
	if err != nil || size != len(payload) {
		t.Fatalf("ObjectSize = %d, %v", size, err)
	}
	if names := pool.Objects(); len(names) != 1 || names[0] != "obj1" {
		t.Fatalf("Objects = %v", names)
	}
}

func TestPoolGetMissing(t *testing.T) {
	c := testCluster(t, 0)
	pool, _ := c.CreatePool("p", 4, 2)
	if _, err := pool.Get(context.Background(), "nope"); err == nil {
		t.Fatal("expected error for missing object")
	}
	if _, err := pool.ObjectSize("nope"); err == nil {
		t.Fatal("expected error for missing object size")
	}
	if _, err := pool.GetChunk(context.Background(), "nope", 0); err == nil {
		t.Fatal("expected error for missing object chunk")
	}
}

func TestPoolChunkDistribution(t *testing.T) {
	// Chunks of an object land on N distinct OSDs; across many objects every
	// OSD gets some load (CRUSH-like spreading).
	c := testCluster(t, 0)
	pool, _ := c.CreatePool("spread", 4, 2)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		payload := make([]byte, 512)
		rng.Read(payload)
		if _, err := pool.PutV(ctx, string(rune('a'+i%26))+string(rune('0'+i/26)), payload); err != nil {
			t.Fatal(err)
		}
	}
	loaded := 0
	for _, osd := range c.OSDs() {
		served, _ := osd.Stats()
		if served > 0 {
			loaded++
		}
	}
	if loaded < 5 {
		t.Fatalf("only %d of 6 OSDs received chunks; placement too skewed", loaded)
	}
}

// TestLazyPlacementMatchesEager pins the placement of a 12-OSD (7,4) pool:
// every placement group's OSD list, built when BeginPut first opens a put in
// the group, is the one the pool once built for all groups up front — the
// first N OSDs of a permutation seeded by the group and the OSD count.
func TestLazyPlacementMatchesEager(t *testing.T) {
	osds := make([]*OSD, 12)
	for i := range osds {
		osds[i] = NewOSD(i, queue.Deterministic{Value: 0}, 1<<10, int64(i))
	}
	pool, err := NewPool("ec", 7, 4, osds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pool.PlacementGroups != 512 {
		t.Fatalf("%d placement groups, want 512", pool.PlacementGroups)
	}
	for pg, mapped := range pool.pgOSDs {
		if mapped != nil {
			t.Fatalf("placement group %d built before any put opened in it", pg)
		}
	}
	built := 0
	for i := 0; built < pool.PlacementGroups; i++ {
		if i == 100_000 {
			t.Fatalf("only %d of %d placement groups built after %d puts", built, pool.PlacementGroups, i)
		}
		object := fmt.Sprintf("obj-%d", i)
		if pool.pgOSDs[pool.placementGroup(object)] == nil {
			built++
		}
		if _, err := pool.BeginPut(object); err != nil {
			t.Fatal(err)
		}
	}
	for pg, mapped := range pool.pgOSDs {
		perm := rand.New(rand.NewSource(int64(pg)*2654435761 + int64(len(osds)))).Perm(len(osds))
		for c, osd := range mapped {
			if osd != osds[perm[c]] {
				t.Fatalf("placement group %d chunk %d on OSD %d, eager placement put it on %d", pg, c, osd.ID, perm[c])
			}
		}
		if len(mapped) != pool.N {
			t.Fatalf("placement group %d lists %d OSDs, want %d", pg, len(mapped), pool.N)
		}
	}
}

func TestPoolGetChunk(t *testing.T) {
	c := testCluster(t, 0)
	pool, _ := c.CreatePool("chunks", 5, 3)
	ctx := context.Background()
	payload := make([]byte, 3000)
	rand.New(rand.NewSource(4)).Read(payload)
	if _, err := pool.PutV(ctx, "o", payload); err != nil {
		t.Fatal(err)
	}
	// Chunk 0 of a systematic code is the first data chunk.
	ch0, err := pool.GetChunk(ctx, "o", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ch0, payload[:1000]) {
		t.Fatal("systematic chunk 0 should equal the first data slice")
	}
	if _, err := pool.GetChunk(ctx, "o", 99); err == nil {
		t.Fatal("expected error for out-of-range chunk")
	}
}

func TestCreatePoolValidation(t *testing.T) {
	c := testCluster(t, 0)
	if _, err := c.CreatePool("bad", 2, 3); err == nil {
		t.Fatal("expected error for n < k")
	}
	if _, err := c.CreatePool("bad2", 10, 2); err == nil {
		t.Fatal("expected error for more chunks than OSDs")
	}
	if _, err := c.CreatePool("dup", 4, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool("dup", 4, 2); err == nil {
		t.Fatal("expected error for duplicate pool name")
	}
	if _, err := c.Pool("dup"); err != nil {
		t.Fatal("existing pool lookup failed")
	}
	if _, err := c.Pool("missing"); err == nil {
		t.Fatal("expected error for unknown pool")
	}
}

func TestCreateEquivalentPools(t *testing.T) {
	c := testCluster(t, 0)
	pools, err := c.CreateEquivalentPools("eq", 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 4 {
		t.Fatalf("expected pools for d=0..3, got %d", len(pools))
	}
	for d, p := range pools {
		if p.K != 4-d || p.N != 6 {
			t.Fatalf("pool d=%d has (%d,%d)", d, p.N, p.K)
		}
	}
}

func TestReadThroughLRUCachesObjects(t *testing.T) {
	c := testCluster(t, 1<<20)
	pool, _ := c.CreatePool("base", 5, 3)
	ctx := context.Background()
	payload := make([]byte, 6000)
	rand.New(rand.NewSource(5)).Read(payload)
	if _, err := pool.PutV(ctx, "hot", payload); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.ReadThroughLRU(ctx, pool, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("miss read returned wrong data")
	}
	if cached, ok := c.CacheTier().Get("hot"); !ok || !bytes.Equal(cached, payload) {
		t.Fatal("object should be promoted into the cache tier after a miss")
	}
	// A hit must be served from the cache tier alone: no OSD serves a chunk
	// for it. (Comparing wall-clock latencies here is flaky: timer sleeps
	// overshoot, because the runtime's netpoller waits in whole milliseconds,
	// even on an idle host.)
	// Let the miss read's two cancelled straggler fetches drain first so
	// their completions don't land between the snapshots.
	time.Sleep(20 * time.Millisecond)
	servedBefore := int64(0)
	for _, osd := range c.OSDs() {
		served, _ := osd.Stats()
		servedBefore += served
	}
	hitsBefore, _, _ := c.CacheTier().Stats()
	data, _, err = c.ReadThroughLRU(ctx, pool, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("hit read returned wrong data")
	}
	servedAfter := int64(0)
	for _, osd := range c.OSDs() {
		served, _ := osd.Stats()
		servedAfter += served
	}
	if servedAfter != servedBefore {
		t.Fatalf("cache hit read %d chunks from OSDs, want 0", servedAfter-servedBefore)
	}
	if hits, _, _ := c.CacheTier().Stats(); hits == hitsBefore {
		t.Fatal("cache tier recorded no hit")
	}
}

func TestReadFunctionalUsesEquivalentPool(t *testing.T) {
	c := testCluster(t, 1<<20)
	pools, err := c.CreateEquivalentPools("eq", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 4500)
	rand.New(rand.NewSource(6)).Read(payload)
	// Write the object into every equivalent pool (the evaluation
	// methodology writes according to the object-pool map).
	for _, p := range pools {
		if _, err := p.PutV(ctx, "obj", payload); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 3; d++ {
		data, lat, err := c.ReadFunctional(ctx, pools, "obj", d, 3, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payload) {
			t.Fatalf("d=%d read returned wrong data", d)
		}
		if lat <= 0 {
			t.Fatalf("d=%d latency = %v", d, lat)
		}
	}
	// d == k: served entirely from cache, no payload returned.
	_, lat, err := c.ReadFunctional(ctx, pools, "obj", 3, 3, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || lat > 100*time.Millisecond {
		t.Fatalf("fully cached latency = %v", lat)
	}
	// Unknown d pool.
	if _, _, err := c.ReadFunctional(ctx, pools, "obj", -1, 3, 0); err == nil {
		t.Fatal("expected error for missing equivalent pool")
	}
}

func TestOSDContextCancellation(t *testing.T) {
	// Service time ~50ms for a 1 KiB chunk; the context expires first.
	osd := NewOSD(0, queue.Deterministic{Value: 0.05}, 1024, 1)
	if err := osd.PutChunk(context.Background(), "k", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := osd.GetChunk(ctx, "k")
	if err == nil {
		t.Fatal("expected context deadline error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("context cancellation did not interrupt the simulated service time")
	}
}

func TestOSDMissingChunk(t *testing.T) {
	osd := NewOSD(0, queue.Deterministic{Value: 0}, 1024, 1)
	if _, err := osd.GetChunk(context.Background(), "missing"); err == nil {
		t.Fatal("expected error for missing chunk")
	}
	if osd.HasChunk("missing") {
		t.Fatal("HasChunk should be false")
	}
}

func TestTableIVAndVCalibration(t *testing.T) {
	rows := TableIVStorage()
	if len(rows) != 5 {
		t.Fatalf("Table IV rows = %d", len(rows))
	}
	d, err := StorageDistFor(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated mean must match the published value (147.8462 ms).
	if got := d.Mean(); got < 0.14 || got > 0.16 {
		t.Fatalf("16MB mean service = %v s", got)
	}
	// Variance matches as well.
	if v := queue.Variance(d); v < 380e-6 || v > 400e-6 {
		t.Fatalf("16MB service variance = %v s^2", v)
	}
	cacheDist, err := CacheDistFor(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheDist.Mean(); got < 0.029 || got > 0.032 {
		t.Fatalf("16MB cache latency = %v s", got)
	}
	// Cache reads are much faster than storage reads for every size.
	for _, row := range TableVCacheLatencies() {
		sd, err := StorageDistFor(row.ChunkSizeBytes)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := CacheDistFor(row.ChunkSizeBytes)
		if err != nil {
			t.Fatal(err)
		}
		if cd.Mean() >= sd.Mean() {
			t.Fatalf("cache read slower than storage read for %d-byte chunks", row.ChunkSizeBytes)
		}
	}
}

func TestStorageDistInterpolatesNearestRow(t *testing.T) {
	// A chunk size between rows scales the nearest row linearly.
	d, err := StorageDistFor(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() <= 0 {
		t.Fatal("interpolated distribution has non-positive mean")
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 100: 128, 400: 512}
	for in, want := range cases {
		if got := nextPowerOfTwo(in); got != want {
			t.Fatalf("nextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}
