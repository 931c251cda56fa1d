package objstore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sprout/internal/erasure"
	"sprout/internal/queue"
)

func healthTestCluster(t *testing.T) (*Cluster, *Pool) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
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
	return c, pool
}

func putObjects(t *testing.T, pool *Pool, n, size int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if _, err := pool.PutV(ctx, fmt.Sprintf("obj-%03d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOSDLifecycle(t *testing.T) {
	c, pool := healthTestCluster(t)
	putObjects(t, pool, 4, 4<<10)
	ctx := context.Background()

	osd, err := c.OSD(0)
	if err != nil {
		t.Fatal(err)
	}
	if osd.State() != StateUp || !osd.Alive() {
		t.Fatalf("fresh OSD state %v", osd.State())
	}

	// Down without chunk loss: ops fast-fail, recovery goes straight to Up.
	osd.Fail(false)
	if osd.State() != StateDown || osd.Alive() {
		t.Fatalf("state after Fail: %v", osd.State())
	}
	if err := osd.PutChunk(ctx, "x", []byte("y")); !errors.Is(err, ErrOSDDown) {
		t.Fatalf("PutChunk on down OSD: %v", err)
	}
	if _, err := osd.GetChunk(ctx, "x"); !errors.Is(err, ErrOSDDown) {
		t.Fatalf("GetChunk on down OSD: %v", err)
	}
	if err := osd.DeleteChunk("x"); !errors.Is(err, ErrOSDDown) {
		t.Fatalf("DeleteChunk on down OSD: %v", err)
	}
	h := osd.Health()
	if h.Errors == 0 {
		t.Fatalf("down rejections not counted: %+v", h)
	}
	osd.Recover()
	if osd.State() != StateUp {
		t.Fatalf("recover without loss: state %v, want up", osd.State())
	}

	// Down with chunk loss: recovery lands in Recovering until MarkUp.
	before := osd.NumChunks()
	if before == 0 {
		t.Fatal("OSD hosts no chunks; placement assumption broken")
	}
	osd.Fail(true)
	if osd.NumChunks() != 0 {
		t.Fatal("Fail(lose) kept chunks")
	}
	osd.Recover()
	if osd.State() != StateRecovering {
		t.Fatalf("recover after loss: state %v, want recovering", osd.State())
	}
	if !osd.Alive() {
		t.Fatal("recovering OSD must serve traffic")
	}
	osd.MarkUp()
	if osd.State() != StateUp || osd.Health().LostChunks != 0 {
		t.Fatalf("MarkUp: state %v, lost %d", osd.State(), osd.Health().LostChunks)
	}
}

func TestPutRollsBackPartialWrites(t *testing.T) {
	c, pool := healthTestCluster(t)
	ctx := context.Background()

	// One OSD down: the staging path re-places its chunks onto live OSDs, so
	// every put still succeeds and lands one chunk per live OSD.
	osd, err := c.OSD(3)
	if err != nil {
		t.Fatal(err)
	}
	osd.Fail(false)
	payload := make([]byte, 8<<10)
	for i := 0; i < 8; i++ {
		if _, err := pool.PutV(ctx, fmt.Sprintf("leak-%02d", i), payload); err != nil {
			t.Fatalf("put with one OSD down: %v", err)
		}
	}
	if osd.NumChunks() != 0 {
		t.Fatalf("down OSD received %d staged chunks", osd.NumChunks())
	}
	for i := 0; i < 8; i++ {
		if _, err := pool.Get(ctx, fmt.Sprintf("leak-%02d", i)); err != nil {
			t.Fatalf("reading object written during outage: %v", err)
		}
	}

	// Too few live OSDs for a full stripe: staging cannot find targets, the
	// put fails, and the aborted chunks leave no orphans anywhere.
	for _, id := range []int{4, 5, 6} {
		o, err := c.OSD(id)
		if err != nil {
			t.Fatal(err)
		}
		o.Fail(false)
	}
	for i := 0; i < 4; i++ {
		_, err := pool.PutV(ctx, fmt.Sprintf("fail-%02d", i), payload)
		if !errors.Is(err, ErrNoRepairTarget) && !errors.Is(err, ErrOSDDown) {
			t.Fatalf("put with 6 of 10 OSDs: err %v, want staging failure", err)
		}
	}
	if staged := pool.StagedPuts(); staged != 0 {
		t.Fatalf("%d staged puts left after aborts", staged)
	}
	// Every stored chunk must belong to a successfully written object.
	okObjects := make(map[string]bool)
	for _, name := range pool.Objects() {
		okObjects[name] = true
	}
	total := 0
	for _, o := range c.OSDs() {
		total += o.NumChunks()
	}
	if want := len(okObjects) * 7; total != want {
		t.Fatalf("%d chunks stored for %d complete objects (want %d) — failed puts leaked",
			total, len(okObjects), want)
	}
}

func TestChunkLocationsAndDegradedObjects(t *testing.T) {
	c, pool := healthTestCluster(t)
	putObjects(t, pool, 6, 4<<10)

	locs, err := pool.ChunkLocations("obj-000")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 7 {
		t.Fatalf("%d locations, want 7", len(locs))
	}
	for _, loc := range locs {
		if !loc.Alive || !loc.Present {
			t.Fatalf("healthy chunk %d reported alive=%v present=%v", loc.Chunk, loc.Alive, loc.Present)
		}
	}
	if deg := pool.DegradedObjects(); len(deg) != 0 {
		t.Fatalf("healthy pool reports %d degraded objects", len(deg))
	}

	// Kill an OSD with loss: the objects placing chunks there degrade, with
	// correct surviving counts.
	osd, err := c.OSD(locs[2].OSD.ID)
	if err != nil {
		t.Fatal(err)
	}
	osd.Fail(true)
	deg := pool.DegradedObjects()
	if len(deg) == 0 {
		t.Fatal("no degraded objects after chunk loss")
	}
	for _, d := range deg {
		if d.Surviving+len(d.Missing) != 7 {
			t.Fatalf("object %s: %d surviving + %d missing != 7", d.Object, d.Surviving, len(d.Missing))
		}
		if d.Surviving >= 7 {
			t.Fatalf("object %s reported degraded with %d survivors", d.Object, d.Surviving)
		}
	}
}

func TestPlaceChunkReplacesAndOverrides(t *testing.T) {
	_, pool := healthTestCluster(t)
	putObjects(t, pool, 1, 4<<10)
	ctx := context.Background()

	locs, err := pool.ChunkLocations("obj-000")
	if err != nil {
		t.Fatal(err)
	}
	victim := locs[4].OSD
	victim.Fail(true)

	// Reconstruct chunk 4's payload from survivors and re-place it.
	var chunks []erasure.Chunk
	for _, loc := range locs {
		if loc.OSD == victim || len(chunks) == 4 {
			continue
		}
		data, err := pool.GetChunk(ctx, "obj-000", loc.Chunk)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, erasure.Chunk{Index: loc.Chunk, Data: data})
	}
	dataChunks, err := pool.Code().Reconstruct(chunks)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := pool.Code().ChunkAt(4, dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	target, err := pool.PlaceChunk(ctx, "obj-000", 4, payload)
	if err != nil {
		t.Fatal(err)
	}
	if target == victim {
		t.Fatal("PlaceChunk chose the down OSD")
	}
	// The override must route reads to the new home, and the new placement
	// must keep one chunk per OSD.
	got, err := pool.GetChunk(ctx, "obj-000", 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatal("re-placed chunk corrupted")
	}
	locs, err = pool.ChunkLocations("obj-000")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, loc := range locs {
		if seen[loc.OSD.ID] {
			t.Fatalf("two chunks on OSD %d after re-placement", loc.OSD.ID)
		}
		seen[loc.OSD.ID] = true
	}
	if deg := pool.DegradedObjects(); len(deg) != 0 {
		t.Fatalf("object still degraded after repair: %+v", deg)
	}
	// ClusterView reflects the override and still validates (distinct
	// placement per file).
	view, err := pool.ClusterView(nil)
	if err != nil {
		t.Fatal(err)
	}
	if view.Files[0].Placement[4] != target.ID {
		t.Fatalf("ClusterView placement[4] = %d, want %d", view.Files[0].Placement[4], target.ID)
	}
}

func TestClusterViewMatchesPool(t *testing.T) {
	c, pool := healthTestCluster(t)
	putObjects(t, pool, 5, 4<<10)
	lambdas := []float64{1, 2, 3, 4, 5}
	view, err := pool.ClusterView(lambdas)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != len(c.OSDs()) {
		t.Fatalf("%d nodes for %d OSDs", len(view.Nodes), len(c.OSDs()))
	}
	if len(view.Files) != 5 {
		t.Fatalf("%d files for 5 objects", len(view.Files))
	}
	for i, f := range view.Files {
		if f.Lambda != lambdas[i] {
			t.Fatalf("file %d lambda %v, want %v", i, f.Lambda, lambdas[i])
		}
		locs, err := pool.ChunkLocations(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		for cidx, nodeID := range f.Placement {
			if locs[cidx].OSD.ID != nodeID {
				t.Fatalf("file %d chunk %d: view says OSD %d, pool says %d",
					i, cidx, nodeID, locs[cidx].OSD.ID)
			}
		}
	}
	if _, err := pool.ClusterView([]float64{1}); err == nil {
		t.Fatal("ClusterView accepted mismatched lambda count")
	}
}
