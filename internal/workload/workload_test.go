package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPoissonArrivalsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	times := PoissonArrivals(rng, 2.0, 10000)
	rate := float64(len(times)) / 10000
	if math.Abs(rate-2.0) > 0.1 {
		t.Fatalf("empirical rate %v, want ~2.0", rate)
	}
	if !sort.Float64sAreSorted(times) {
		t.Fatal("arrival times must be increasing")
	}
	for _, x := range times {
		if x < 0 || x >= 10000 {
			t.Fatalf("arrival %v outside horizon", x)
		}
	}
}

func TestPoissonArrivalsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if PoissonArrivals(rng, 0, 10) != nil {
		t.Fatal("zero rate should produce no arrivals")
	}
	if PoissonArrivals(rng, 1, 0) != nil {
		t.Fatal("zero horizon should produce no arrivals")
	}
}

func TestGenerateMergesAndSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	reqs := Generate(rng, []float64{0.5, 1.5}, 1000)
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	var last float64
	counts := make([]int, 2)
	for _, r := range reqs {
		if r.Arrival < last {
			t.Fatal("requests not sorted by arrival time")
		}
		last = r.Arrival
		counts[r.FileID]++
	}
	// File 1 has 3x the rate of file 0.
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("rate ratio %v, want ~3", ratio)
	}
}

func TestScheduleValidate(t *testing.T) {
	s := Schedule{}
	if err := s.Validate(); err == nil {
		t.Fatal("empty schedule should fail validation")
	}
	s = Schedule{Bins: []TimeBin{{Duration: 0, Lambdas: []float64{1}}}}
	if err := s.Validate(); err == nil {
		t.Fatal("zero duration should fail")
	}
	s = Schedule{Bins: []TimeBin{
		{Duration: 10, Lambdas: []float64{1, 2}},
		{Duration: 10, Lambdas: []float64{1}},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("inconsistent widths should fail")
	}
	s = Schedule{Bins: []TimeBin{{Duration: 10, Lambdas: []float64{-1}}}}
	if err := s.Validate(); err == nil {
		t.Fatal("negative rate should fail")
	}
	s = TableISchedule(100)
	if err := s.Validate(); err != nil {
		t.Fatalf("TableISchedule should be valid: %v", err)
	}
}

func TestGenerateSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Schedule{Bins: []TimeBin{
		{Duration: 100, Lambdas: []float64{1, 0}},
		{Duration: 100, Lambdas: []float64{0, 1}},
	}}
	reqs, err := s.GenerateSchedule(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Arrival < 100 && r.FileID != 0 {
			t.Fatal("only file 0 should arrive in bin 1")
		}
		if r.Arrival >= 100 && r.FileID != 1 {
			t.Fatal("only file 1 should arrive in bin 2")
		}
	}
	if _, err := (Schedule{}).GenerateSchedule(rng); err == nil {
		t.Fatal("empty schedule should error")
	}
}

func TestTableIRatesShape(t *testing.T) {
	rates := TableIRates()
	if len(rates) != 3 {
		t.Fatalf("expected 3 time bins, got %d", len(rates))
	}
	for i, bin := range rates {
		if len(bin) != 10 {
			t.Fatalf("bin %d has %d files, want 10", i, len(bin))
		}
	}
	// The published transitions: file 4 (index 3) decreases from bin 1 to 2,
	// file 2 (index 1) increases from bin 2 to 3.
	if !(rates[1][3] < rates[0][3]) {
		t.Fatal("file 4 rate should decrease in bin 2")
	}
	if !(rates[2][1] > rates[1][1]) {
		t.Fatal("file 2 rate should increase in bin 3")
	}
}

func TestTableIIIWorkload(t *testing.T) {
	classes := TableIIIWorkload()
	if len(classes) != 5 {
		t.Fatalf("expected 5 classes, got %d", len(classes))
	}
	if classes[0].SizeBytes != 4<<20 || classes[4].SizeBytes != 1<<30 {
		t.Fatal("object sizes wrong")
	}
	for _, c := range classes {
		if c.ArrivalRate <= 0 {
			t.Fatalf("class %s has non-positive rate", c.Name)
		}
	}
}

func TestZipf(t *testing.T) {
	rates := Zipf(100, 1.0, 10)
	if len(rates) != 100 {
		t.Fatalf("len = %d", len(rates))
	}
	var sum float64
	for i, r := range rates {
		if r <= 0 {
			t.Fatalf("rate[%d] = %v", i, r)
		}
		if i > 0 && r > rates[i-1]+1e-12 {
			t.Fatal("rates must be non-increasing in rank")
		}
		sum += r
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Fatalf("total rate %v, want 10", sum)
	}
	if Zipf(0, 1, 10) != nil || Zipf(10, 1, 0) != nil {
		t.Fatal("degenerate Zipf inputs should return nil")
	}
}

func TestZipfSkewProperty(t *testing.T) {
	// Higher exponent concentrates more mass on the most popular file.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		low := Zipf(n, 0.5, 1)
		high := Zipf(n, 1.5, 1)
		return high[0] > low[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRateEstimatorRates(t *testing.T) {
	e := NewRateEstimator(2, 100, 0.25)
	if e.window != 100 {
		t.Fatalf("window = %v", e.window)
	}
	// 50 requests for file 0 over 100 seconds -> rate 0.5.
	for i := 0; i < 50; i++ {
		e.Observe(float64(i*2), 0)
	}
	rates := e.Rates(100)
	if math.Abs(rates[0]-0.5) > 0.02 {
		t.Fatalf("rate[0] = %v, want ~0.5", rates[0])
	}
	if rates[1] != 0 {
		t.Fatalf("rate[1] = %v, want 0", rates[1])
	}
	// Old events expire from the window.
	rates = e.Rates(300)
	if rates[0] != 0 {
		t.Fatalf("rate[0] after expiry = %v", rates[0])
	}
}

func TestRateEstimatorNeedsNewBin(t *testing.T) {
	e := NewRateEstimator(1, 100, 0.25)
	e.StartBin([]float64{0.5})
	for i := 0; i < 50; i++ {
		e.Observe(float64(i*2), 0)
	}
	// Observed rate ~0.5 matches the bin plan: no new bin.
	if e.NeedsNewBin(100) {
		t.Fatal("rates match plan; no new bin expected")
	}
	// Burst of requests doubles the observed rate: trigger.
	for i := 0; i < 60; i++ {
		e.Observe(100+float64(i), 0)
	}
	if !e.NeedsNewBin(160) {
		t.Fatal("rate doubled; expected a new time bin")
	}
	// A file going from zero to non-zero also triggers.
	e2 := NewRateEstimator(1, 100, 0.25)
	e2.StartBin([]float64{0})
	e2.Observe(1, 0)
	if !e2.NeedsNewBin(2) {
		t.Fatal("zero-to-nonzero rate change should trigger a new bin")
	}
}

func TestRateEstimatorIgnoresOutOfRangeFiles(t *testing.T) {
	e := NewRateEstimator(1, 10, 0.25)
	e.Observe(1, -1)
	e.Observe(1, 5)
	rates := e.Rates(2)
	if rates[0] != 0 {
		t.Fatal("out-of-range observations should be ignored")
	}
}

func TestRateEstimatorDefaults(t *testing.T) {
	e := NewRateEstimator(1, -1, -1)
	if e.window <= 0 {
		t.Fatal("invalid window should fall back to a positive default")
	}
}

func TestRatePicker(t *testing.T) {
	p := NewRatePicker([]float64{1, 0, 3})
	counts := make([]int, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40000; i++ {
		counts[p.Pick(rng.Float64())]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-rate index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("rate-3 index picked %.2fx rate-1 index, want ~3x", ratio)
	}
	if NewRatePicker(nil).Pick(0.5) != 0 || NewRatePicker([]float64{0, 0}).Pick(0.99) != 0 {
		t.Fatal("degenerate pickers must return 0")
	}
}
