package sprout_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"sprout"
	"sprout/internal/objstore"
)

// memFetcher serves chunks from an in-memory encoding of each file.
type memFetcher map[int]map[int][]byte

func (m memFetcher) FetchChunk(_ context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
	return m[fileID][chunkIndex], nil
}

func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := sprout.ClusterConfig{
		NumNodes:     4,
		NumFiles:     4,
		N:            3,
		K:            2,
		FileSize:     1 << 10,
		ServiceRates: []float64{1, 0.9, 0.8, 0.7},
		ArrivalRates: []float64{0.1},
		Seed:         1,
	}
	clu, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := sprout.NewController(clu, 4, sprout.OptimizerOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Encode each file into an in-memory store with the controller's coders.
	store := memFetcher{}
	originals := map[int][]byte{}
	for _, meta := range ctrl.Files() {
		payload := bytes.Repeat([]byte{byte(meta.ID + 1)}, meta.SizeBytes)
		originals[meta.ID] = payload
		dataChunks, err := meta.Code.Split(payload)
		if err != nil {
			t.Fatal(err)
		}
		encoded, err := meta.Code.Encode(dataChunks)
		if err != nil {
			t.Fatal(err)
		}
		store[meta.ID] = map[int][]byte{}
		for i, ch := range encoded {
			store[meta.ID][i] = ch
		}
	}

	plan, err := ctrl.PlanTimeBin(clu.Lambdas())
	if err != nil {
		t.Fatal(err)
	}
	if plan.CacheUsed() > 4 {
		t.Fatalf("plan exceeds the cache capacity: %d", plan.CacheUsed())
	}
	for fileID := range originals {
		got, err := ctrl.Read(context.Background(), fileID, store)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, originals[fileID]) {
			t.Fatalf("file %d round-trip mismatch", fileID)
		}
	}
	if ctrl.Stats().Reads != int64(len(originals)) {
		t.Fatalf("stats reads = %d", ctrl.Stats().Reads)
	}
}

func TestPaperConfigExport(t *testing.T) {
	rates := sprout.PaperServiceRates()
	if len(rates) != 12 {
		t.Fatalf("service rates = %v", rates)
	}
	rates[0] = 99 // must not alias the internal slice
	if sprout.PaperServiceRates()[0] == 99 {
		t.Fatal("PaperServiceRates leaks internal state")
	}
	if sprout.Exponential(2).Mean() != 0.5 {
		t.Fatal("Exponential helper wrong")
	}
	p, err := sprout.ProblemFromCluster(mustBuild(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sprout.Optimize(p, sprout.OptimizerOptions{}); err != nil {
		t.Fatal(err)
	}
}

func mustBuild(t *testing.T) *sprout.Cluster {
	t.Helper()
	cfg := sprout.ClusterConfig{NumNodes: 12, NumFiles: 20, N: 7, K: 4,
		FileSize: 100 << 20, ServiceRates: sprout.PaperServiceRates()}
	clu, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	return clu
}

// poolFetcher reads coded chunks of object "obj-<fileID>" from a pool.
type poolFetcher struct{ pool *sprout.StoragePool }

func (f poolFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
	return f.pool.GetChunk(ctx, fmt.Sprintf("obj-%d", fileID), chunkIndex)
}

// TestSelfHealingFacade drives the facade's failure-handling surface —
// controller over a pool's topology, membership, repair manager, OSD states.
// The facade exports no storage-cluster constructor (the examples build
// theirs with internal/stack), so the cluster comes from internal/objstore.
func TestSelfHealingFacade(t *testing.T) {
	ctx := context.Background()
	oc, err := objstore.NewCluster(objstore.ClusterConfig{
		NumOSDs:      10,
		Services:     []sprout.ServiceDist{sprout.Exponential(5000)},
		RefChunkSize: 1 << 10,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := oc.CreatePool("ec", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{9}, 8<<10)
	for i := 0; i < 6; i++ {
		if _, err := pool.PutV(ctx, fmt.Sprintf("obj-%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	lambdas := make([]float64, 6)
	for i := range lambdas {
		lambdas[i] = 0.01
	}
	view, err := pool.ClusterView(lambdas)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := sprout.NewController(view, 6, sprout.OptimizerOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	fetcher := poolFetcher{pool}
	if _, err := ctrl.PlanTimeBin(lambdas); err != nil {
		t.Fatal(err)
	}

	mgr := sprout.NewRepairManager(pool, sprout.RepairConfig{Workers: 2})
	mgr.Start()
	defer mgr.Close()

	// Fail an OSD with loss, mark it down, read degraded, repair, verify.
	if err := oc.FailOSDs(true, 3); err != nil {
		t.Fatal(err)
	}
	ctrl.SetNodeDown(3)
	if got := ctrl.DownNodes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("membership not recorded: %v", got)
	}
	for i := 0; i < 6; i++ {
		got, err := ctrl.Read(ctx, i, fetcher)
		if err != nil {
			t.Fatalf("degraded read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("file %d corrupted", i)
		}
	}
	if n := mgr.ScanOnce(); n == 0 {
		t.Fatal("scan found nothing to repair after chunk loss")
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := mgr.WaitIdle(waitCtx); err != nil {
		t.Fatal(err)
	}
	if stats := mgr.Stats(); stats.ChunksRepaired == 0 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if deg := pool.DegradedObjects(); len(deg) != 0 {
		t.Fatalf("still degraded after repair: %+v", deg)
	}
	// Health surface round trip.
	var sawDown bool
	for _, h := range oc.Health() {
		if h.ID == 3 && h.State == sprout.OSDDown {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatal("health snapshot missing the down OSD")
	}
}

// TestResilienceFacade drives a breaker set built through the facade: it
// trips on an error streak and rejects while open.
func TestResilienceFacade(t *testing.T) {
	br := sprout.NewBreakerSet(sprout.BreakerConfig{ErrorThreshold: 2, OpenFor: time.Minute})
	if !br.Allow(3) {
		t.Fatal("fresh breaker rejected a request")
	}
	for i := 0; i < 2; i++ {
		br.Observe(3, fmt.Errorf("boom"), time.Millisecond)
	}
	if br.Allow(3) {
		t.Fatal("open breaker allowed a request")
	}
	if st := br.Stats(); st.Opens == 0 {
		t.Fatal("breaker stats recorded no trips")
	}
}
