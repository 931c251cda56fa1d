package core

import (
	"context"
	"errors"
	"math"
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
		o.Admission = &AdmissionConfig{}
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
// owner's share, unlisted files to the default share — folded into a policy
// named DefaultTenant when one exists, never a second slice beside it — the
// per-tenant budgets sum to the cache capacity, and the plan keeps each
// tenant's files within its budget.
func TestTenantCacheShares(t *testing.T) {
	for _, tc := range []struct {
		name     string
		files    int
		capacity int
		policies []TenantPolicy
	}{
		{"unlisted files form the default share", 4, 6, []TenantPolicy{
			{Name: "gold", Class: ClassGold, Weight: 3, Files: []int{0, 1}},
			{Name: "bronze", Class: ClassBronze, Weight: 1, Files: []int{2}},
		}},
		{"a default policy takes the unlisted files", 6, 12, []TenantPolicy{
			{Name: DefaultTenant, Weight: 3, Files: []int{0, 1}},
			{Name: "gold", Class: ClassGold, Weight: 1, Files: []int{2}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, _ := buildControllerWith(t, tc.files, tc.capacity, 0.05, ServeOptions{Tenants: tc.policies})
			defer ctrl.Close()
			// owner maps every file to its tenant: the policy listing it, or
			// the default tenant.
			owner := make([]string, tc.files)
			for f := range owner {
				owner[f] = DefaultTenant
			}
			weight := map[string]int{DefaultTenant: 1}
			for _, p := range tc.policies {
				weight[p.Name] = p.Weight
				for _, f := range p.Files {
					owner[f] = p.Name
				}
			}
			stats := ctrl.TenantStats()
			total := 0
			for _, snap := range stats {
				total += snap.CacheShare
			}
			if total != tc.capacity {
				t.Fatalf("tenant cache shares %+v sum to %d, want capacity %d", stats, total, tc.capacity)
			}
			// One share per tenant, holding exactly that tenant's files.
			shareOf := map[string]int{}
			covered := 0
			for i, sh := range ctrl.tenantShares {
				name := owner[sh.Files[0]]
				if j, ok := shareOf[name]; ok {
					t.Fatalf("tenant %q planned as shares %d and %d: %+v", name, j, i, ctrl.tenantShares)
				}
				shareOf[name] = i
				for _, f := range sh.Files {
					if owner[f] != name {
						t.Fatalf("share %+v mixes tenants %q and %q", sh, name, owner[f])
					}
				}
				covered += len(sh.Files)
			}
			if covered != tc.files {
				t.Fatalf("shares %+v cover %d of %d files", ctrl.tenantShares, covered, tc.files)
			}
			for a := range shareOf {
				for b := range shareOf {
					if weight[a] > weight[b] && stats[a].CacheShare <= stats[b].CacheShare {
						t.Fatalf("%s share %d not larger than %s share %d at weight %d:%d",
							a, stats[a].CacheShare, b, stats[b].CacheShare, weight[a], weight[b])
					}
				}
			}
			plan, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl))
			if err != nil {
				t.Fatal(err)
			}
			cached := map[string]int{}
			for f, d := range plan.D {
				cached[owner[f]] += d
			}
			for name, d := range cached {
				if d > stats[name].CacheShare {
					t.Fatalf("tenant %q caches %d chunks, share %d", name, d, stats[name].CacheShare)
				}
			}
		})
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
		{"empty name", []TenantPolicy{{Name: "", Class: ClassGold}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := NewControllerWith(testCluster(4, 0.05), 4, optimizer.Options{}, ServeOptions{Tenants: tc.policies}, 1)
			if err == nil {
				ctrl.Close()
				t.Fatal("NewControllerWith accepted the policies")
			}
		})
	}
}

// TestServeOptionsValidation: NewControllerWith rejects a negative duration
// or count, a ReplanThreshold that is negative or not finite, and a negative
// admission bound, and accepts zero (default or off) for every knob.
func TestServeOptionsValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve ServeOptions
		ok    bool
	}{
		{"zero value", ServeOptions{}, true},
		{"zero admission", ServeOptions{Admission: &AdmissionConfig{}}, true},
		{"weight below one is clamped", ServeOptions{Tenants: []TenantPolicy{{Name: "a", Weight: -3}}}, true},
		{"negative HedgeDelay", ServeOptions{HedgeDelay: -time.Millisecond}, false},
		{"negative HedgeExtra", ServeOptions{HedgeDelay: time.Millisecond, HedgeExtra: -1}, false},
		{"negative FillWorkers", ServeOptions{FillWorkers: -1}, false},
		{"negative ReplanInterval", ServeOptions{ReplanInterval: -time.Second}, false},
		{"negative ReplanThreshold", ServeOptions{ReplanThreshold: -0.1}, false},
		{"NaN ReplanThreshold", ServeOptions{ReplanThreshold: math.NaN()}, false},
		{"infinite ReplanThreshold", ServeOptions{ReplanThreshold: math.Inf(1)}, false},
		{"negative MaxInFlight", ServeOptions{Admission: &AdmissionConfig{MaxInFlight: -1}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := NewControllerWith(testCluster(4, 0.05), 4, optimizer.Options{}, tc.serve, 1)
			if err == nil {
				ctrl.Close()
			}
			if (err == nil) != tc.ok {
				t.Fatalf("NewControllerWith(%+v) error = %v, want ok = %v", tc.serve, err, tc.ok)
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
