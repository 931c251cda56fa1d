package scheduler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPickerValidation(t *testing.T) {
	if _, err := NewPicker([]float64{0.5, 0.6, 1.1}); err == nil {
		t.Fatal("expected error for probability > 1")
	}
	if _, err := NewPicker([]float64{-0.2, 0.5}); err == nil {
		t.Fatal("expected error for negative probability")
	}
	if _, err := NewPicker([]float64{0.5, 0.4}); err == nil {
		t.Fatal("expected error for non-integral sum")
	}
	p, err := NewPicker([]float64{0, 0, 0})
	if err != nil {
		t.Fatalf("zero vector should be allowed: %v", err)
	}
	if p.setSize != 0 || p.Pick(rand.New(rand.NewSource(1))) != nil {
		t.Fatal("zero vector picker should select nothing")
	}
}

func TestPickSelectsDistinctNodesOfCorrectSize(t *testing.T) {
	pi := []float64{0.9, 0.8, 0.7, 0.6, 0, 1.0}
	// sum = 4.0
	p, err := NewPicker(pi)
	if err != nil {
		t.Fatal(err)
	}
	if p.setSize != 4 {
		t.Fatalf("set size = %d, want 4", p.setSize)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		sel := p.Pick(rng)
		if len(sel) != 4 {
			t.Fatalf("selected %d nodes, want 4", len(sel))
		}
		seen := make(map[int]bool)
		for _, s := range sel {
			if pi[s] == 0 {
				t.Fatalf("selected node %d with zero probability", s)
			}
			if seen[s] {
				t.Fatalf("duplicate node %d in selection %v", s, sel)
			}
			seen[s] = true
		}
	}
}

func TestPickMarginalsMatchProbabilities(t *testing.T) {
	// The core guarantee of Madow sampling: empirical inclusion frequencies
	// converge to the configured probabilities.
	pi := []float64{0.25, 0.75, 0.5, 0.5, 1.0}
	p, err := NewPicker(pi)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]float64, len(pi))
	const trials = 200000
	for trial := 0; trial < trials; trial++ {
		for _, s := range p.Pick(rng) {
			counts[s]++
		}
	}
	for j, want := range pi {
		got := counts[j] / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("node %d inclusion frequency %v, want %v", j, got, want)
		}
	}
}

func TestPickMarginalsQuick(t *testing.T) {
	// Property: for random probability vectors (rounded to an integral sum),
	// Pick always returns setSize distinct in-range nodes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		pi := make([]float64, n)
		remaining := float64(1 + rng.Intn(3))
		for j := 0; j < n && remaining > 1e-9; j++ {
			p := rng.Float64()
			if p > remaining {
				p = remaining
			}
			if p > 1 {
				p = 1
			}
			pi[j] = p
			remaining -= p
		}
		if remaining > 1e-9 {
			// Could not place all mass within [0,1] caps; top up first slots.
			for j := 0; j < n && remaining > 1e-9; j++ {
				add := math.Min(1-pi[j], remaining)
				pi[j] += add
				remaining -= add
			}
		}
		picker, err := NewPicker(pi)
		if err != nil {
			return false
		}
		sel := picker.Pick(rng)
		if len(sel) != picker.setSize {
			return false
		}
		seen := make(map[int]bool)
		for _, s := range sel {
			if s < 0 || s >= n || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalsAccessor(t *testing.T) {
	pi := []float64{0.3, 0, 0.7, 1.0}
	p, err := NewPicker(pi)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Marginals(4)
	for j := range pi {
		if math.Abs(m[j]-pi[j]) > 1e-12 {
			t.Fatalf("marginal[%d] = %v, want %v", j, m[j], pi[j])
		}
	}
}

func TestAssignment(t *testing.T) {
	pi := [][]float64{
		{1, 1, 0, 0},     // file 0 reads nodes 0 and 1 always
		{0, 0, 0.5, 0.5}, // file 1 reads one of nodes 2/3
		{0, 0, 0, 0},     // file 2 fully cached
	}
	a, err := NewAssignment(pi)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFiles() != 3 {
		t.Fatalf("NumFiles = %d", a.NumFiles())
	}
	if a.pickers[0].setSize != 2 || a.pickers[1].setSize != 1 || a.pickers[2].setSize != 0 {
		t.Fatal("chunks fetched from storage wrong")
	}
	rng := rand.New(rand.NewSource(11))
	sel := a.Pick(0, rng)
	if len(sel) != 2 || !((sel[0] == 0 && sel[1] == 1) || (sel[0] == 1 && sel[1] == 0)) {
		t.Fatalf("file 0 selection %v", sel)
	}
	for i := 0; i < 100; i++ {
		sel = a.Pick(1, rng)
		if len(sel) != 1 || (sel[0] != 2 && sel[0] != 3) {
			t.Fatalf("file 1 selection %v", sel)
		}
	}
	if got := a.Pick(2, rng); got != nil {
		t.Fatalf("fully cached file should pick nothing, got %v", got)
	}
}

func TestNewAssignmentPropagatesErrors(t *testing.T) {
	if _, err := NewAssignment([][]float64{{0.5}}); err == nil {
		t.Fatal("expected error from invalid per-file vector")
	}
}

func TestPickerExcluding(t *testing.T) {
	// pi sums to 2 over four nodes; exclude node 1 and check the surviving
	// mass renormalises to 2 with caps respected.
	p, err := NewPicker([]float64{0.8, 0.6, 0.4, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	alive := func(n int) bool { return n != 1 }
	ex := p.Excluding(alive)
	if ex.setSize != 2 {
		t.Fatalf("excluded set size %d, want 2", ex.setSize)
	}
	m := ex.Marginals(4)
	if m[1] != 0 {
		t.Fatalf("down node kept probability %v", m[1])
	}
	var sum float64
	for _, v := range m {
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("marginal out of range: %v", m)
		}
		sum += v
	}
	if math.Abs(sum-2) > 1e-9 {
		t.Fatalf("marginals sum to %v, want 2", sum)
	}
	// Empirical inclusion frequencies must match the renormalised marginals.
	rng := rand.New(rand.NewSource(5))
	counts := make([]float64, 4)
	const draws = 200000
	for i := 0; i < draws; i++ {
		for _, n := range ex.PickFrom(rng.Float64()) {
			counts[n]++
		}
	}
	for n := range counts {
		got := counts[n] / draws
		if math.Abs(got-m[n]) > 0.01 {
			t.Fatalf("node %d inclusion %v, want %v", n, got, m[n])
		}
	}
	// A draw must never include the excluded node.
	for i := 0; i < 1000; i++ {
		for _, n := range ex.PickFrom(rng.Float64()) {
			if n == 1 {
				t.Fatal("excluded node selected")
			}
		}
	}
}

func TestPickerExcludingCapsAtOne(t *testing.T) {
	// Sum 2 over three nodes; excluding node 2 leaves mass 1.3 to scale to
	// 2: node 0 caps at 1 and node 1 takes the rest.
	p, err := NewPicker([]float64{0.9, 0.4, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Excluding(func(n int) bool { return n != 2 })
	m := ex.Marginals(3)
	if math.Abs(m[0]-1) > 1e-9 || math.Abs(m[1]-1) > 1e-9 {
		t.Fatalf("marginals %v, want [1 1 0]", m)
	}
}

func TestPickerExcludingFewerSurvivorsThanSetSize(t *testing.T) {
	p, err := NewPicker([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Excluding(func(n int) bool { return n == 0 })
	if ex.setSize != 1 {
		t.Fatalf("set size %d, want 1 (single survivor)", ex.setSize)
	}
	got := ex.PickFrom(0.5)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("pick = %v, want [0]", got)
	}
	// All nodes down: empty picker.
	none := p.Excluding(func(int) bool { return false })
	if none.setSize != 0 || none.PickFrom(0.3) != nil {
		t.Fatal("all-down picker must select nothing")
	}
}

func TestAssignmentExcludingSharesHealthyPickers(t *testing.T) {
	a, err := NewAssignment([][]float64{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := a.Excluding(func(n int) bool { return n != 0 })
	// File 1 has no mass on node 0, so its picker is reused untouched.
	if ex.pickers[1] != a.pickers[1] {
		t.Fatal("unaffected picker was rebuilt")
	}
	if ex.pickers[0] == a.pickers[0] {
		t.Fatal("affected picker was not rebuilt")
	}
	if got := ex.PickFrom(0, 0.5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("file 0 pick = %v, want [1]", got)
	}
}

// The candidates arrive in tie-break order: the Madow draw first, then the
// rest of the placement. RankByWork must move a node only past nodes with
// strictly more expected work.
func TestRankByWork(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodes    []int           // incoming (Madow-first) order
		inflight map[int]int64   // by node; absent = idle
		mean     map[int]float64 // by node; absent = 1
		want     []int
	}{
		{name: "empty"},
		{name: "single", nodes: []int{4}, want: []int{4}},
		{name: "idle homogeneous keeps the draw", nodes: []int{3, 0, 5, 1, 2}, want: []int{3, 0, 5, 1, 2}},
		{name: "equal backlog everywhere keeps the draw", nodes: []int{3, 0, 5},
			inflight: map[int]int64{3: 2, 0: 2, 5: 2}, want: []int{3, 0, 5}},
		{name: "backlogged draw sinks behind idle placement", nodes: []int{3, 0, 5, 1, 2},
			inflight: map[int]int64{3: 4}, want: []int{0, 5, 1, 2, 3}},
		{name: "ties among the backlogged keep the draw order", nodes: []int{3, 0, 5, 1},
			inflight: map[int]int64{3: 1, 0: 1}, want: []int{5, 1, 3, 0}},
		{name: "heterogeneous means order an idle cluster", nodes: []int{2, 0, 1},
			mean: map[int]float64{0: 0.004, 1: 0.008, 2: 0.016}, want: []int{0, 1, 2}},
		{name: "backlog on the fast node outweighs its speed", nodes: []int{2, 0, 1},
			inflight: map[int]int64{0: 4},
			mean:     map[int]float64{0: 0.004, 1: 0.008, 2: 0.016}, want: []int{1, 2, 0}},
		{name: "equal products tie back to the draw", nodes: []int{1, 0},
			inflight: map[int]int64{0: 1},
			mean:     map[int]float64{0: 0.004, 1: 0.008}, want: []int{1, 0}},
		{name: "zero-mean service ranks nothing", nodes: []int{2, 0, 1},
			inflight: map[int]int64{2: 9},
			mean:     map[int]float64{0: 0, 1: 0, 2: 0}, want: []int{2, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := append([]int(nil), tc.nodes...)
			work := make([]float64, len(nodes))
			for i, node := range nodes {
				mean, ok := tc.mean[node]
				if !ok {
					mean = 1
				}
				work[i] = ExpectedWork(tc.inflight[node], mean)
			}
			RankByWork(nodes, work)
			if len(nodes) != len(tc.want) {
				t.Fatalf("ranked %v, want %v", nodes, tc.want)
			}
			for i := range nodes {
				if nodes[i] != tc.want[i] {
					t.Fatalf("ranked %v, want %v", nodes, tc.want)
				}
			}
			for i := 1; i < len(work); i++ {
				if work[i] < work[i-1] {
					t.Fatalf("work not ascending after ranking: %v", work)
				}
			}
		})
	}
}

func TestRankByWorkDoesNotAllocate(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 4, 5, 6}
	work := make([]float64, len(nodes))
	allocs := testing.AllocsPerRun(100, func() {
		for i := range work {
			work[i] = ExpectedWork(int64(len(work)-i), 0.004)
		}
		RankByWork(nodes, work)
	})
	if allocs != 0 {
		t.Fatalf("RankByWork allocates %v times per call", allocs)
	}
}
