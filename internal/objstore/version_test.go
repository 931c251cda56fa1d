package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sprout/internal/erasure"
	"sprout/internal/queue"
)

func versionTestPool(t *testing.T, osds, n, k int) (*Cluster, *Pool) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		NumOSDs:      osds,
		Services:     []queue.Dist{queue.Deterministic{Value: 0}},
		RefChunkSize: 1 << 10,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreatePool("ec", n, k)
	if err != nil {
		t.Fatal(err)
	}
	return c, pool
}

func payloadFor(tag byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = tag ^ byte(i*7)
	}
	return p
}

func TestOverwriteVersionFlip(t *testing.T) {
	c, pool := versionTestPool(t, 10, 7, 4)
	ctx := context.Background()

	v1Payload := payloadFor(1, 8<<10)
	v1, err := pool.PutV(ctx, "obj", v1Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := pool.Version("obj"); got != v1 {
		t.Fatalf("version %d, want %d", got, v1)
	}
	got, err := pool.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, v1Payload) {
		t.Fatalf("get v1: err %v, match %v", err, bytes.Equal(got, v1Payload))
	}

	// Overwrite with a different size; reads must flip to the new stripe and
	// the old stripe's chunks must be deleted everywhere.
	v2Payload := payloadFor(2, 12<<10)
	v2, err := pool.PutV(ctx, "obj", v2Payload)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("overwrite version %d not beyond %d", v2, v1)
	}
	got, err = pool.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, v2Payload) {
		t.Fatalf("get v2: err %v, match %v", err, bytes.Equal(got, v2Payload))
	}
	count := func() int {
		total := 0
		for _, o := range c.OSDs() {
			total += o.NumChunks()
		}
		return total
	}
	// The replaced stripe is parked for one commit (GC grace), then gone.
	if got := count(); got != 2*pool.N {
		t.Fatalf("%d chunks stored with one stripe parked, want %d", got, 2*pool.N)
	}
	if reaped := pool.ReapPrevious(); reaped != 1 {
		t.Fatalf("reaped %d stripes, want 1", reaped)
	}
	if got := count(); got != pool.N {
		t.Fatalf("%d chunks stored after reap, want %d (old stripe leaked)", got, pool.N)
	}
	if size, _ := pool.ObjectSize("obj"); size != len(v2Payload) {
		t.Fatalf("size %d, want %d", size, len(v2Payload))
	}
}

func TestStagedPutInvisibleUntilCommit(t *testing.T) {
	c, pool := versionTestPool(t, 10, 5, 3)
	ctx := context.Background()

	old := payloadFor(9, 6<<10)
	if _, err := pool.PutV(ctx, "obj", old); err != nil {
		t.Fatal(err)
	}
	oldVersion, _ := pool.Version("obj")

	// Stage a full new stripe but do not commit: readers must keep seeing
	// the old payload, chunk by chunk and whole-object.
	next := payloadFor(8, 6<<10)
	dataChunks, err := pool.Code().Split(next)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := pool.Code().Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	version, err := pool.BeginPut("obj")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pool.N; i++ {
		if err := pool.StageChunk(ctx, "obj", version, i, storage[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := pool.Get(ctx, "obj"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("staged put visible before commit: err %v", err)
	}
	if v, _ := pool.Version("obj"); v != oldVersion {
		t.Fatalf("version moved to %d before commit", v)
	}

	// Commit flips atomically.
	if err := pool.CommitObject("obj", version, len(next)); err != nil {
		t.Fatal(err)
	}
	if got, err := pool.Get(ctx, "obj"); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("committed put not visible: err %v", err)
	}
	// Replayed commit is a no-op.
	if err := pool.CommitObject("obj", version, len(next)); err != nil {
		t.Fatalf("replayed commit: %v", err)
	}
	pool.ReapPrevious()
	total := 0
	for _, o := range c.OSDs() {
		total += o.NumChunks()
	}
	if total != pool.N {
		t.Fatalf("%d chunks stored, want %d", total, pool.N)
	}
}

func TestAbortPutLeavesNoTrace(t *testing.T) {
	c, pool := versionTestPool(t, 10, 5, 3)
	ctx := context.Background()

	old := payloadFor(3, 4<<10)
	if _, err := pool.PutV(ctx, "obj", old); err != nil {
		t.Fatal(err)
	}
	version, err := pool.BeginPut("obj")
	if err != nil {
		t.Fatal(err)
	}
	chunk := payloadFor(4, 2<<10)
	for i := 0; i < 3; i++ { // partial stripe
		if err := pool.StageChunk(ctx, "obj", version, i, chunk); err != nil {
			t.Fatal(err)
		}
	}
	// Committing an incomplete stripe must fail.
	if err := pool.CommitObject("obj", version, 6<<10); !errors.Is(err, ErrStagedStripe) {
		t.Fatalf("commit of partial stripe: %v", err)
	}
	if err := pool.AbortPut("obj", version); err != nil {
		t.Fatal(err)
	}
	if staged := pool.StagedPuts(); staged != 0 {
		t.Fatalf("%d staged puts after abort", staged)
	}
	total := 0
	for _, o := range c.OSDs() {
		total += o.NumChunks()
	}
	if total != pool.N {
		t.Fatalf("%d chunks stored after abort, want %d (staged chunks leaked)", total, pool.N)
	}
	if got, err := pool.Get(ctx, "obj"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old payload damaged by aborted put: err %v", err)
	}
	// Staging into an aborted put must fail.
	if err := pool.StageChunk(ctx, "obj", version, 0, chunk); !errors.Is(err, ErrNoStagedPut) {
		t.Fatalf("stage after abort: %v", err)
	}
	// Stale-staged GC aborts abandoned puts.
	if _, err := pool.BeginPut("zombie"); err != nil {
		t.Fatal(err)
	}
	if aborted := pool.AbortStaleStaged(0); aborted != 1 {
		t.Fatalf("AbortStaleStaged removed %d puts, want 1", aborted)
	}
}

// TestOverrideLifetimeAcrossOverwrites: placement overrides (chunks staged
// away from a Down CRUSH home) must stay resolvable while their stripe can
// still be read — a reader pinned to the old stripe resolves re-placed
// chunks until the chunks themselves are reaped — and must not leak in the
// override map afterwards.
func TestOverrideLifetimeAcrossOverwrites(t *testing.T) {
	c, pool := versionTestPool(t, 10, 7, 4)
	ctx := context.Background()

	countOverrides := func() int {
		pool.mu.RLock()
		defer pool.mu.RUnlock()
		return len(pool.overrides)
	}

	// Find an object whose CRUSH placement uses a specific OSD, then fail
	// that OSD so writes must re-place a chunk (creating an override).
	osd, err := c.OSD(4)
	if err != nil {
		t.Fatal(err)
	}
	osd.Fail(false)
	if _, err := pool.PutV(ctx, "obj", payloadFor(1, 8<<10)); err != nil {
		t.Fatal(err)
	}
	overridesV1 := countOverrides()

	// Overwrite while the OSD is still down: the old stripe is parked, and
	// its overrides must survive until the stripe is reaped.
	if _, err := pool.PutV(ctx, "obj", payloadFor(2, 8<<10)); err != nil {
		t.Fatal(err)
	}
	if got := countOverrides(); got < overridesV1 {
		t.Fatalf("overrides dropped at commit (%d -> %d) while the parked stripe is still readable", overridesV1, got)
	}
	if reaped := pool.ReapPrevious(); reaped != 1 {
		t.Fatalf("reaped %d stripes, want 1", reaped)
	}
	// Only the current stripe's overrides remain; the parked stripe's were
	// cleaned up with its chunks.
	if got := countOverrides(); overridesV1 > 0 && got != overridesV1 {
		t.Fatalf("%d override entries after reap, want %d (old-stripe overrides leaked)", got, overridesV1)
	}
	if got, err := pool.Get(ctx, "obj"); err != nil || !bytes.Equal(got, payloadFor(2, 8<<10)) {
		t.Fatalf("read after override-heavy overwrite: err %v", err)
	}
}

// TestConcurrentOverwriteAndGet hammers one object with overwrites while
// readers decode it: every successful Get must equal the payload of one
// committed put — never a failed put's bytes and never a mix of two
// versions.
func TestConcurrentOverwriteAndGet(t *testing.T) {
	_, pool := versionTestPool(t, 10, 7, 4)
	ctx := context.Background()

	const size = 8 << 10
	if _, err := pool.PutV(ctx, "hot", payloadFor(0, size)); err != nil {
		t.Fatal(err)
	}
	// committed[tag] reports whether payloadFor(tag) was (or is being)
	// committed; a Get may legally observe a put that commits during the
	// read, so the tag is registered before the put starts.
	var mu sync.Mutex
	committed := map[byte]bool{0: true}

	const writers, writesEach, readers, readsEach = 3, 12, 4, 40
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesEach; i++ {
				tag := byte(1 + w*writesEach + i)
				mu.Lock()
				committed[tag] = true
				mu.Unlock()
				if _, err := pool.PutV(ctx, "hot", payloadFor(tag, size)); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsEach; i++ {
				got, err := pool.Get(ctx, "hot")
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(got) != size {
					errCh <- fmt.Errorf("reader %d: %d bytes, want %d", r, len(got), size)
					return
				}
				tag := got[0] // payloadFor(tag)[0] == tag
				mu.Lock()
				ok := committed[tag]
				mu.Unlock()
				if !ok || !bytes.Equal(got, payloadFor(tag, size)) {
					errCh <- fmt.Errorf("reader %d: bytes match no committed put (tag %d, known %v)", r, tag, ok)
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
}

// TestPutGetLinearizableRandom is the pool-level linearizability property
// test: for random (n, k), object sizes, and interleaved
// Put/Get/Fail/Recover/Repair sequences, every successful Get returns
// exactly the payload of the last committed Put of that object.
func TestPutGetLinearizableRandom(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		k := 2 + rng.Intn(3)        // 2..4
		n := k + 1 + rng.Intn(3)    // k+1..k+3
		osds := n + 2 + rng.Intn(3) // headroom for failures
		c, err := NewCluster(ClusterConfig{
			NumOSDs:      osds,
			Services:     []queue.Dist{queue.Deterministic{Value: 0}},
			RefChunkSize: 1 << 10,
			Seed:         int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := c.CreatePool("ec", n, k)
		if err != nil {
			t.Fatal(err)
		}

		model := make(map[string][]byte) // last committed payload per object
		down := make(map[int]bool)
		objName := func(i int) string { return fmt.Sprintf("o%d", i) }
		const objects = 4

		repairAll := func() {
			// Inline repair: regenerate every missing chunk from survivors
			// (the repair manager's core loop, without its goroutines).
			for _, deg := range pool.DegradedObjects() {
				locs, err := pool.ChunkLocations(deg.Object)
				if err != nil {
					continue
				}
				var chunks []erasure.Chunk
				for _, loc := range locs {
					if loc.Alive && loc.Present {
						if data, err := pool.GetChunk(ctx, deg.Object, loc.Chunk); err == nil {
							chunks = append(chunks, erasure.Chunk{Index: loc.Chunk, Data: data})
						}
					}
				}
				if len(chunks) < k {
					continue // not enough survivors; deferred
				}
				dataChunks, err := pool.Code().Reconstruct(chunks)
				if err != nil {
					t.Fatalf("trial %d: reconstruct %s: %v", trial, deg.Object, err)
				}
				for _, missing := range deg.Missing {
					payload, err := pool.Code().ChunkAt(missing, dataChunks)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := pool.PlaceChunk(ctx, deg.Object, missing, payload); err != nil {
						t.Fatalf("trial %d: place %s/%d: %v", trial, deg.Object, missing, err)
					}
				}
			}
		}

		for op := 0; op < 60; op++ {
			obj := objName(rng.Intn(objects))
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // Put
				payload := payloadFor(byte(rng.Intn(256)), 512+rng.Intn(4096))
				_, err := pool.PutV(ctx, obj, payload)
				if err == nil {
					model[obj] = payload
				} else if len(down) == 0 {
					t.Fatalf("trial %d op %d: put with all OSDs up: %v", trial, op, err)
				}
				// A failed put must leave the previous committed value intact;
				// the next Get case verifies that through the model.
			case 4, 5, 6, 7: // Get
				want, exists := model[obj]
				got, err := pool.Get(ctx, obj)
				if !exists {
					if !errors.Is(err, ErrObjectNotFound) {
						t.Fatalf("trial %d op %d: get of unwritten %s: %v", trial, op, obj, err)
					}
					continue
				}
				if err != nil {
					// Only acceptable when fewer than k chunks are readable.
					if locs, lerr := pool.ChunkLocations(obj); lerr == nil {
						readable := 0
						for _, loc := range locs {
							if loc.Alive && loc.Present {
								readable++
							}
						}
						if readable >= k {
							t.Fatalf("trial %d op %d: get %s failed with %d readable chunks: %v", trial, op, obj, readable, err)
						}
					}
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d op %d: get %s returned stale or mixed bytes", trial, op, obj)
				}
			case 8: // Fail an OSD (sometimes losing chunks)
				id := rng.Intn(osds)
				if len(down) < n-k { // keep at least k chunks decodable
					lose := rng.Intn(2) == 0
					if osd, err := c.OSD(id); err == nil && osd.Alive() {
						osd.Fail(lose)
						down[id] = true
					}
				}
			case 9: // Recover + repair
				for id := range down {
					if osd, err := c.OSD(id); err == nil {
						osd.Recover()
					}
					delete(down, id)
				}
				repairAll()
			}
		}
	}
}
