package optimizer

import (
	"math"
	"testing"
)

func TestSplitBudgetsExactAndWeighted(t *testing.T) {
	shares := []TenantShare{{Weight: 3}, {Weight: 1}}
	budgets := SplitBudgets(10, shares)
	if budgets[0]+budgets[1] != 10 {
		t.Fatalf("budgets %v do not sum to capacity", budgets)
	}
	if budgets[0] < 7 || budgets[0] > 8 {
		t.Fatalf("weight-3 share got %d of 10, want 7 or 8", budgets[0])
	}

	// Largest-remainder rounding: 5 chunks over equal weights 1:1:1 gives
	// each share at least ⌊5/3⌋ and the budgets still sum exactly.
	budgets = SplitBudgets(5, []TenantShare{{Weight: 1}, {Weight: 1}, {Weight: 1}})
	sum := 0
	for _, b := range budgets {
		if b < 1 {
			t.Fatalf("budgets %v starve a share", budgets)
		}
		sum += b
	}
	if sum != 5 {
		t.Fatalf("budgets %v sum to %d, want 5", budgets, sum)
	}

	// Degenerate inputs: no capacity, no shares, non-positive weights.
	for _, b := range SplitBudgets(0, shares) {
		if b != 0 {
			t.Fatalf("zero capacity split = %v", SplitBudgets(0, shares))
		}
	}
	if got := SplitBudgets(10, nil); len(got) != 0 {
		t.Fatalf("empty shares split = %v", got)
	}
	budgets = SplitBudgets(4, []TenantShare{{Weight: 0}, {Weight: -2}})
	if budgets[0]+budgets[1] != 4 || budgets[0] != budgets[1] {
		t.Fatalf("non-positive weights should split evenly, got %v", budgets)
	}
}

func TestOptimizeSplitRespectsBudgets(t *testing.T) {
	p := smallProblem(6, 6, 0.05)
	shares := []TenantShare{
		{Weight: 2, Files: []int{0, 1, 2}},
		{Weight: 1, Files: []int{3, 4, 5}},
	}
	plan, err := OptimizeSplit(p, Options{}, shares)
	if err != nil {
		t.Fatal(err)
	}
	budgets := SplitBudgets(p.CacheCapacity, shares)
	for t2, s := range shares {
		used := 0
		for _, f := range s.Files {
			used += plan.D[f]
		}
		if used > budgets[t2] {
			t.Fatalf("share %d cached %d chunks, budget %d", t2, used, budgets[t2])
		}
	}
	total := 0
	for _, d := range plan.D {
		total += d
	}
	if total > p.CacheCapacity {
		t.Fatalf("merged plan caches %d chunks, capacity %d", total, p.CacheCapacity)
	}
	if math.IsNaN(plan.Objective) || plan.Objective <= 0 {
		t.Fatalf("merged objective = %v", plan.Objective)
	}
	for i, pi := range plan.Pi {
		if len(pi) != len(p.Nodes) {
			t.Fatalf("file %d: Pi row has %d cols, want %d", i, len(pi), len(p.Nodes))
		}
	}
}

func TestOptimizeSplitMatchesOptimizeWhenUnsplit(t *testing.T) {
	p := smallProblem(4, 4, 0.05)
	joint, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split, err := OptimizeSplit(p, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.D) != len(joint.D) {
		t.Fatalf("split plan has %d files, joint %d", len(split.D), len(joint.D))
	}
	for i := range joint.D {
		if split.D[i] != joint.D[i] {
			t.Fatalf("empty-shares split diverged from Optimize: D=%v vs %v", split.D, joint.D)
		}
	}
}

func TestOptimizeSplitValidatesOwnership(t *testing.T) {
	p := smallProblem(3, 2, 0.05)
	if _, err := OptimizeSplit(p, Options{}, []TenantShare{{Weight: 1, Files: []int{0, 1}}}); err == nil {
		t.Fatal("expected error for a file owned by no share")
	}
	if _, err := OptimizeSplit(p, Options{}, []TenantShare{
		{Weight: 1, Files: []int{0, 1}},
		{Weight: 1, Files: []int{1, 2}},
	}); err == nil {
		t.Fatal("expected error for a doubly-owned file")
	}
	if _, err := OptimizeSplit(p, Options{}, []TenantShare{{Weight: 1, Files: []int{0, 1, 7}}}); err == nil {
		t.Fatal("expected error for an out-of-range file")
	}
}
