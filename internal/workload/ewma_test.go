package workload

import (
	"math"
	"sync"
	"testing"
)

func TestEWMAFirstTickSeedsInstantaneousRates(t *testing.T) {
	e := NewEWMAEstimator(3, 0.5)
	for i := 0; i < 10; i++ {
		e.Observe(0)
	}
	e.Observe(2)
	rates := e.Tick(2)
	want := []float64{5, 0, 0.5}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-12 {
			t.Fatalf("rates[%d] = %v, want %v", i, rates[i], want[i])
		}
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMAEstimator(1, 0.5)
	for i := 0; i < 8; i++ {
		e.Observe(0)
	}
	e.Tick(1) // seeds at 8 req/s
	// A silent tick halves the estimate at alpha = 0.5.
	rates := e.Tick(1)
	if math.Abs(rates[0]-4) > 1e-12 {
		t.Fatalf("after silent tick rate = %v, want 4", rates[0])
	}
	// Counts are consumed by Tick: a second silent tick halves again.
	rates = e.Tick(1)
	if math.Abs(rates[0]-2) > 1e-12 {
		t.Fatalf("after two silent ticks rate = %v, want 2", rates[0])
	}
}

// TestEWMAIdleWindowsReportZero: a file without a request in the last
// idleWindows ticks reports exactly 0, one request restarts its average, and
// a file read every other tick never reaches 0.
func TestEWMAIdleWindowsReportZero(t *testing.T) {
	e := NewEWMAEstimator(2, 0.3)
	for i := 0; i < 10; i++ {
		e.Observe(0)
		e.Observe(1)
	}
	e.Tick(1)
	for tick := 1; tick <= 2*idleWindows; tick++ {
		if tick%2 == 0 {
			e.Observe(1)
		}
		rates := e.Tick(1)
		if idle := rates[0] == 0; idle != (tick >= idleWindows) {
			t.Fatalf("after %d idle ticks file 0 reads %v", tick, rates[0])
		}
		if rates[1] == 0 {
			t.Fatalf("file 1, read every other tick, reads 0 at tick %d", tick)
		}
	}
	e.Observe(0)
	if rates := e.Tick(1); math.Abs(rates[0]-0.3) > 1e-12 {
		t.Fatalf("first tick with a request after going idle reads %v, want 0.3", rates[0])
	}
}

func TestEWMAObserveConcurrent(t *testing.T) {
	e := NewEWMAEstimator(4, 0.3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Observe(i % 4)
			}
		}(w)
	}
	wg.Wait()
	rates := e.Tick(1)
	var total float64
	for _, r := range rates {
		total += r
	}
	if total != 8000 {
		t.Fatalf("total rate %v, want 8000", total)
	}
}

func TestEWMAOutOfRangeObserve(t *testing.T) {
	e := NewEWMAEstimator(1, 0.3)
	e.Observe(-1)
	e.Observe(1)
	rates := e.Tick(1)
	if rates[0] != 0 {
		t.Fatalf("out-of-range observes must be ignored, got %v", rates[0])
	}
}
