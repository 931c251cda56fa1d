package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"sprout/internal/optimizer"
)

// tenantServe is the three-class policy set most tenant tests share.
func tenantServe() ServeOptions {
	return ServeOptions{
		Tenants: []TenantPolicy{
			{Name: "gold", Class: ClassGold, Weight: 4},
			{Name: "silver", Class: ClassSilver, Weight: 2},
			{Name: "bronze", Class: ClassBronze, Weight: 1},
		},
	}
}

func TestTenantContextRoundTrip(t *testing.T) {
	if got := TenantFrom(context.Background()); got != "" {
		t.Fatalf("TenantFrom(empty ctx) = %q, want \"\"", got)
	}
	ctx := WithTenant(context.Background(), "gold")
	if got := TenantFrom(ctx); got != "gold" {
		t.Fatalf("TenantFrom = %q, want gold", got)
	}
}

// TestTenantShedLadder pins the level-3 shed order: bronze gives up every
// storage-bound read, gold none, and silver (like unknown tenants, which fold
// into the default state) only the plan's low-value files.
func TestTenantShedLadder(t *testing.T) {
	ctrl, store := buildControllerWith(t, 4, 0, 0.05, func() ServeOptions {
		o := tenantServe()
		o.Admission = &AdmissionConfig{LatencyTarget: time.Millisecond}
		return o
	}())
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	saturate(t, ctrl)

	for fileID := 0; fileID < 4; fileID++ {
		if _, err := ctrl.Read(WithTenant(context.Background(), "gold"), fileID, store); err != nil {
			t.Fatalf("gold file %d shed at level 3: %v", fileID, err)
		}
	}
	bronzeSheds := 0
	for fileID := 0; fileID < 4; fileID++ {
		_, err := ctrl.Read(WithTenant(context.Background(), "bronze"), fileID, store)
		if err == nil {
			continue // cache-complete reads pass for every class
		}
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("bronze file %d: %v", fileID, err)
		}
		bronzeSheds++
	}
	if bronzeSheds == 0 {
		t.Fatal("no bronze read was shed at level 3")
	}
	// Silver sheds at most the low-value half; with uniform rates the rank
	// fallback marks ⌊n/2⌋ files, so at least half of silver's reads pass.
	silverOK := 0
	for fileID := 0; fileID < 4; fileID++ {
		if _, err := ctrl.Read(WithTenant(context.Background(), "silver"), fileID, store); err == nil {
			silverOK++
		} else if !errors.Is(err, ErrSaturated) {
			t.Fatalf("silver file %d: %v", fileID, err)
		}
	}
	if silverOK < 2 {
		t.Fatalf("silver served %d of 4 reads at level 3, want >= 2", silverOK)
	}

	stats := ctrl.TenantStats()
	if stats["gold"].Sheds != 0 {
		t.Fatalf("gold sheds = %d, want 0", stats["gold"].Sheds)
	}
	if stats["bronze"].Sheds != int64(bronzeSheds) {
		t.Fatalf("bronze sheds = %d, want %d", stats["bronze"].Sheds, bronzeSheds)
	}
	if stats["gold"].Reads != 4 {
		t.Fatalf("gold reads = %d, want 4", stats["gold"].Reads)
	}
}

// TestTenantPriorityHedging pins level-1 behaviour: gold keeps its hedge
// timer through the first brownout level while silver's is suppressed.
func TestTenantPriorityHedging(t *testing.T) {
	ctrl, store := buildControllerWith(t, 3, 0, 0.05, func() ServeOptions {
		o := tenantServe()
		o.HedgeDelay = time.Nanosecond
		o.HedgeExtra = 1
		o.Admission = &AdmissionConfig{MaxInFlight: 1000}
		return o
	}())
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	// Push the queue depth into the NoHedge band (level 1, below CacheOnly):
	// 800 of 1000, and the test's own read adds one.
	ctrl.adm.inflight.Add(800)
	if lvl := ctrl.SaturationLevel(); lvl != 1 {
		t.Fatalf("saturation level = %d, want 1", lvl)
	}
	if _, err := ctrl.Read(WithTenant(context.Background(), "silver"), 0, store); err != nil {
		t.Fatalf("silver read: %v", err)
	}
	suppressedAfterSilver := ctrl.Stats().HedgesSuppressed
	if suppressedAfterSilver == 0 {
		t.Fatal("silver read did not suppress its hedge at level 1")
	}
	if _, err := ctrl.Read(WithTenant(context.Background(), "gold"), 0, store); err != nil {
		t.Fatalf("gold read: %v", err)
	}
	stats := ctrl.Stats()
	if stats.PriorityHedges == 0 {
		t.Fatal("gold read at level 1 did not take the priority-hedge path")
	}
	if stats.HedgesSuppressed != suppressedAfterSilver {
		t.Fatalf("gold read suppressed its hedge (suppressed %d -> %d)",
			suppressedAfterSilver, stats.HedgesSuppressed)
	}
}

// TestTenantCacheShares pins the budget partition: listed files map to their
// owner's share, unlisted files to the default share, and the per-tenant
// budgets sum to the cache capacity.
func TestTenantCacheShares(t *testing.T) {
	serve := ServeOptions{
		Tenants: []TenantPolicy{
			{Name: "gold", Class: ClassGold, Weight: 3, Files: []int{0, 1}},
			{Name: "bronze", Class: ClassBronze, Weight: 1, Files: []int{2}},
		},
	}
	ctrl, _ := buildControllerWith(t, 4, 6, 0.05, serve)
	defer ctrl.Close()
	owner := map[int]int{}
	for t, sh := range ctrl.tenantShares {
		for _, f := range sh.Files {
			owner[f] = t
		}
	}
	if len(owner) != 4 || owner[0] != owner[1] || owner[0] == owner[2] || owner[3] == owner[0] || owner[3] == owner[2] {
		t.Fatalf("shares %+v, want files 0,1 together, 2 apart and 3 in the default share", ctrl.tenantShares)
	}
	stats := ctrl.TenantStats()
	total := 0
	for _, snap := range stats {
		total += snap.CacheShare
	}
	if total != 6 {
		t.Fatalf("tenant cache shares sum to %d, want capacity 6", total)
	}
	if stats["gold"].CacheShare <= stats["bronze"].CacheShare {
		t.Fatalf("gold share %d not larger than bronze %d at weight 3:1",
			stats["gold"].CacheShare, stats["bronze"].CacheShare)
	}
	// The split plan still comes out of PlanTimeBin and respects capacity.
	plan, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, d := range plan.D {
		cached += d
	}
	if cached > 6 {
		t.Fatalf("split plan caches %d chunks, capacity 6", cached)
	}
}

// TestTenantValidation: NewControllerWith rejects the tenant policy sets the
// QoS plane would otherwise misread. (Every valid shape is built by the
// other tenant tests.)
func TestTenantValidation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policies []TenantPolicy
	}{
		{"unknown class", []TenantPolicy{{Name: "a", Class: "Gold"}}},
		{"duplicate name", []TenantPolicy{{Name: "a", Class: ClassGold}, {Name: "a", Class: ClassBronze}}},
		{"file out of range", []TenantPolicy{{Name: "a", Files: []int{4}}}},
		{"negative file", []TenantPolicy{{Name: "a", Files: []int{-1}}}},
		{"file listed by two policies", []TenantPolicy{{Name: "a", Files: []int{0, 1}}, {Name: "b", Files: []int{1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := NewControllerWith(testCluster(4, 0.05), 4, optimizer.Options{MaxOuterIter: 6}, ServeOptions{Tenants: tc.policies}, 1)
			if err == nil {
				ctrl.Close()
				t.Fatal("NewControllerWith accepted the policies")
			}
		})
	}
}

// TestTenantDefaultFoldsUnknown pins cardinality bounding: unknown tenant
// names are accounted under the default state, never a new one.
func TestTenantDefaultFoldsUnknown(t *testing.T) {
	ctrl, store := buildControllerWith(t, 2, 0, 0.05, tenantServe())
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Read(WithTenant(context.Background(), "nobody-configured-this"), 0, store); err != nil {
		t.Fatal(err)
	}
	stats := ctrl.TenantStats()
	if _, ok := stats["nobody-configured-this"]; ok {
		t.Fatal("unknown tenant name created its own state")
	}
	if stats[DefaultTenant].Reads != 1 {
		t.Fatalf("default tenant reads = %d, want 1", stats[DefaultTenant].Reads)
	}
	if len(stats) != 4 { // gold, silver, bronze, default
		t.Fatalf("tenant states = %d, want 4", len(stats))
	}
}
