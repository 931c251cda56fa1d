// Package workload generates the request workloads used throughout the
// paper's evaluation and provides the arrival-rate machinery the system
// model assumes: Poisson request generation, time-binned (non-homogeneous)
// arrival rates, a sliding-window rate estimator that triggers new time
// bins, Zipf popularity, and the COSBench-style object-size mix synthesised
// from the 24-hour production trace (Table III).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Request is one file access request.
type Request struct {
	FileID  int
	Arrival float64 // arrival time in seconds from the start of the workload
}

// PoissonArrivals generates arrivals of a homogeneous Poisson process with
// the given rate over [0, horizon) seconds.
func PoissonArrivals(rng *rand.Rand, rate, horizon float64) []float64 {
	if rate <= 0 || horizon <= 0 {
		return nil
	}
	var times []float64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= horizon {
			return times
		}
		times = append(times, t)
	}
}

// Generate produces a merged, time-ordered request stream for a set of files
// with the given per-file arrival rates over [0, horizon) seconds.
func Generate(rng *rand.Rand, lambdas []float64, horizon float64) []Request {
	var reqs []Request
	for fileID, rate := range lambdas {
		for _, t := range PoissonArrivals(rng, rate, horizon) {
			reqs = append(reqs, Request{FileID: fileID, Arrival: t})
		}
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })
	return reqs
}

// TimeBin is one stationary interval of a non-homogeneous workload.
type TimeBin struct {
	Duration float64   // seconds
	Lambdas  []float64 // per-file arrival rates during the bin
}

// Schedule is a sequence of time bins.
type Schedule struct {
	Bins []TimeBin
}

// ErrEmptySchedule is returned when a schedule has no bins.
var ErrEmptySchedule = errors.New("workload: empty schedule")

// Validate checks that every bin has a positive duration and consistent
// arrival-rate vectors.
func (s Schedule) Validate() error {
	if len(s.Bins) == 0 {
		return ErrEmptySchedule
	}
	width := len(s.Bins[0].Lambdas)
	for i, b := range s.Bins {
		if b.Duration <= 0 {
			return fmt.Errorf("workload: bin %d has non-positive duration", i)
		}
		if len(b.Lambdas) != width {
			return fmt.Errorf("workload: bin %d has %d rates, want %d", i, len(b.Lambdas), width)
		}
		for f, l := range b.Lambdas {
			if l < 0 {
				return fmt.Errorf("workload: bin %d file %d has negative rate", i, f)
			}
		}
	}
	return nil
}

// GenerateSchedule produces the full request stream across every bin; bin
// boundaries shift the arrival-time origin so the stream is continuous.
func (s Schedule) GenerateSchedule(rng *rand.Rand) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var reqs []Request
	offset := 0.0
	for _, bin := range s.Bins {
		for _, r := range Generate(rng, bin.Lambdas, bin.Duration) {
			reqs = append(reqs, Request{FileID: r.FileID, Arrival: offset + r.Arrival})
		}
		offset += bin.Duration
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })
	return reqs, nil
}

// TableIRates returns the per-file arrival rates of the paper's Table I: 10
// files across 3 time bins, including the rate increases and decreases the
// evolution experiment (Fig. 5) is built around.
func TableIRates() [][]float64 {
	return [][]float64{
		{0.000156, 0.000156, 0.000125, 0.000167, 0.000104, 0.000156, 0.000156, 0.000125, 0.000167, 0.000104},
		{0.000156, 0.000156, 0.000125, 0.000125, 0.000125, 0.000156, 0.000156, 0.000125, 0.000125, 0.000125},
		{0.000125, 0.00025, 0.000125, 0.000167, 0.000104, 0.000125, 0.00025, 0.000125, 0.000167, 0.000104},
	}
}

// TableISchedule builds a three-bin schedule with the Table I rates and the
// given bin duration in seconds.
func TableISchedule(binDuration float64) Schedule {
	rates := TableIRates()
	bins := make([]TimeBin, len(rates))
	for i, r := range rates {
		bins[i] = TimeBin{Duration: binDuration, Lambdas: r}
	}
	return Schedule{Bins: bins}
}

// ObjectClass is one object-size class of the production trace the paper's
// Ceph evaluation replays (Table III).
type ObjectClass struct {
	Name        string
	SizeBytes   int64
	ArrivalRate float64 // average request arrival rate per object (req/sec)
}

// TableIIIWorkload returns the published 24-hour object-storage workload
// classes: object sizes and per-object average arrival rates.
func TableIIIWorkload() []ObjectClass {
	const mb = int64(1) << 20
	return []ObjectClass{
		{Name: "4MB", SizeBytes: 4 * mb, ArrivalRate: 0.00029868},
		{Name: "16MB", SizeBytes: 16 * mb, ArrivalRate: 0.00010824},
		{Name: "64MB", SizeBytes: 64 * mb, ArrivalRate: 0.00051852},
		{Name: "256MB", SizeBytes: 256 * mb, ArrivalRate: 0.0000078},
		{Name: "1GB", SizeBytes: 1024 * mb, ArrivalRate: 0.0000024},
	}
}

// Zipf assigns Zipf-distributed arrival rates with exponent s to numFiles
// files such that the aggregate rate equals totalRate. File 0 is the most
// popular.
func Zipf(numFiles int, s, totalRate float64) []float64 {
	if numFiles <= 0 || totalRate <= 0 {
		return nil
	}
	weights := make([]float64, numFiles)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		sum += weights[i]
	}
	for i := range weights {
		weights[i] = totalRate * weights[i] / sum
	}
	return weights
}

// RatePicker samples file indices proportional to a fixed non-negative rate
// vector: one uniform draw per pick against a precomputed cumulative array.
// It is immutable after construction and safe for concurrent use.
type RatePicker struct {
	cum   []float64
	total float64
}

// NewRatePicker builds a picker over the rates (e.g. a Zipf lambda vector).
func NewRatePicker(rates []float64) *RatePicker {
	p := &RatePicker{cum: make([]float64, len(rates))}
	for i, r := range rates {
		if r > 0 {
			p.total += r
		}
		p.cum[i] = p.total
	}
	return p
}

// Pick maps a uniform draw u in [0,1) to an index with probability
// proportional to its rate. A zero-total picker always returns 0.
func (p *RatePicker) Pick(u float64) int {
	if p.total == 0 || len(p.cum) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(p.cum, u*p.total)
	if i >= len(p.cum) {
		i = len(p.cum) - 1
	}
	return i
}
