package sprout_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"sprout"
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
	ctrl, err := sprout.NewController(clu, 4, sprout.OptimizerOptions{MaxOuterIter: 5}, 1)
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

func TestPublicCodeAPI(t *testing.T) {
	code, err := sprout.NewCode(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("sprout"), 100)
	dataChunks, err := code.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := code.Encode(dataChunks)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := code.CacheChunks(dataChunks, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Decode from 2 cache chunks + 3 storage chunks (the paper's example).
	chunks := []sprout.Chunk{
		{Index: code.CacheChunkIndex(0), Data: cached[0]},
		{Index: code.CacheChunkIndex(1), Data: cached[1]},
		{Index: 0, Data: storage[0]},
		{Index: 3, Data: storage[3]},
		{Index: 5, Data: storage[5]},
	}
	got, err := code.Decode(chunks, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode through the public API failed")
	}
}

func TestPaperConfigExport(t *testing.T) {
	cfg := sprout.PaperConfig()
	if cfg.NumNodes != 12 || cfg.NumFiles != 1000 {
		t.Fatalf("paper config = %+v", cfg)
	}
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
	if _, err := sprout.Optimize(p, sprout.OptimizerOptions{MaxOuterIter: 3}); err != nil {
		t.Fatal(err)
	}
}

func mustBuild(t *testing.T) *sprout.Cluster {
	t.Helper()
	cfg := sprout.PaperConfig()
	cfg.NumFiles = 20
	clu, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	return clu
}

// TestSelfHealingFacade drives the failure-handling surface purely through
// the public facade: storage cluster, pool, controller over the pool's
// topology, membership, and repair manager.
func TestSelfHealingFacade(t *testing.T) {
	ctx := context.Background()
	oc, err := sprout.NewStorageCluster(sprout.StorageConfig{
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
		if err := pool.Put(ctx, fmt.Sprintf("obj-%d", i), payload); err != nil {
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
	ctrl, err := sprout.NewController(view, 6, sprout.OptimizerOptions{MaxOuterIter: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	fetcher := sprout.FetcherFunc(func(ctx context.Context, fileID, chunkIndex, _ int) ([]byte, error) {
		return pool.GetChunk(ctx, fmt.Sprintf("obj-%d", fileID), chunkIndex)
	})
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
	// TransportStats is addable through the facade.
	var ts sprout.TransportStats
	ts = ts.Add(sprout.TransportStats{FramesSent: 1})
	if ts.FramesSent != 1 {
		t.Fatal("TransportStats alias broken")
	}
}

func TestResilienceFacade(t *testing.T) {
	// Breaker lifecycle through the facade: trip on an error streak, reject
	// while open, and surface the state constants.
	br := sprout.NewBreakerSet(sprout.BreakerConfig{ErrorThreshold: 2, OpenFor: time.Minute})
	if br.State(3) != sprout.BreakerClosed {
		t.Fatalf("fresh breaker state = %v, want closed", br.State(3))
	}
	for i := 0; i < 2; i++ {
		br.Observe(3, fmt.Errorf("boom"), time.Millisecond)
	}
	if br.State(3) != sprout.BreakerOpen {
		t.Fatalf("breaker after error streak = %v, want open", br.State(3))
	}
	if br.Allow(3) {
		t.Fatal("open breaker allowed a request")
	}
	if st := br.Stats(); st.Opens == 0 {
		t.Fatal("breaker stats recorded no trips")
	}

	// Saturation sheds classify as overload, not as node faults.
	if !sprout.IsOverload(sprout.ErrSaturated) {
		t.Fatal("ErrSaturated must classify as overload")
	}

	// Retry budget: retries beyond the bank are denied until successes pay
	// tokens back in.
	rb := sprout.NewRetryBudget(1, 0.1)
	if !rb.Withdraw() {
		t.Fatal("first retry should fit the budget")
	}
	if rb.Withdraw() {
		t.Fatal("empty budget granted a retry")
	}

	// Chaos harness is constructible and runtime-controllable standalone.
	chaos := sprout.NewChaos(1)
	chaos.SetRule(2, sprout.ChaosRule{Latency: time.Millisecond, ErrorRate: 0.5})
	if r, ok := chaos.Rule(2); !ok || r.ErrorRate != 0.5 {
		t.Fatalf("chaos rule round trip = %+v, %v", r, ok)
	}
	chaos.ClearRule(2)
	if _, ok := chaos.Rule(2); ok {
		t.Fatal("cleared chaos rule still present")
	}
}
