package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tables in spec.go
// repeat.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, e, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		if d.resolve <= 0 || d.resolve > d.bound {
			t.Errorf("%s: -compare's bound %g outside (0, %g]", d.name, d.resolve, d.bound)
		}
		seen[d.name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, e, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %s is used twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
	}
}

// scaled shrinks the data set and the cache for the smoke test; rates stay.
func (w workloadSpec) scaled(div int) workloadSpec {
	w.files = max(w.files/div, 4)
	w.cacheChunks /= div
	return w
}

// TestSmoke runs both phases of every workload for half a second at a tenth
// of the size. It asserts that every metric BENCHMARK.json names was
// measured (report fails on one that was not), comes out once and finite,
// that nothing is measured under a name that is not declared, and that self
// time and covered time add up per operation. It asserts nothing about
// wall-clock latency.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := phaseConfig{
					wl: wl.scaled(10), seed: 1, setUps: 1, trace: trace,
					warmup: 100 * time.Millisecond, timed: 400 * time.Millisecond,
				}
				out, err := runPhase(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.wrong != nil {
					t.Fatalf("wrong bytes: %v", out.wrong)
				}
				r, err := out.report(trace)
				if err != nil {
					t.Fatal(err)
				}
				for name := range out.values {
					if !declared[name] {
						t.Errorf("trace=%v: %s is measured but declared neither in endToEnd nor in perLayer", trace, name)
					}
				}
				if r.Attempted < 1 {
					t.Errorf("attempted = %d", r.Attempted)
				}
				var want []string
				if trace {
					for _, m := range b.PerLayer {
						want = append(want, m.Name)
					}
				} else {
					for _, m := range b.EndToEnd {
						want = append(want, m.Name)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics reported, BENCHMARK.json names %d", trace, len(r.Metrics), len(want))
				}
				for _, name := range want {
					m, ok := r.Metrics[name]
					if !ok {
						t.Errorf("trace=%v: metric %s is not reported", trace, name)
					} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s = %v", trace, name, m.Value)
					}
				}
				if trace {
					checkSelfTimes(t, out.spans, spanOpRead)
					checkSelfTimes(t, out.spans, spanOpWrite)
					if out.values["trace.spans"] == 0 {
						t.Error("traced phase recorded no span")
					}
				}
			}
		})
	}
}

// checkSelfTimes recomputes, for every span named parent, the time its
// children cover by sampling the elementary intervals between all of their
// end points, and requires self + covered = duration within 1 %.
func checkSelfTimes(t *testing.T, spans []span, parent uint8) {
	t.Helper()
	self := selfTimes(spans, parent)
	n := 0
	for i, s := range spans {
		if s.name != parent || s.end == 0 {
			continue
		}
		var kids []span
		points := []int64{s.start, s.end}
		for _, k := range spans {
			if k.parent == uint32(i+1) && k.end != 0 {
				kids = append(kids, k)
				points = append(points, min(max(k.start, s.start), s.end), min(max(k.end, s.start), s.end))
			}
		}
		sort.Slice(points, func(a, b int) bool { return points[a] < points[b] })
		var union int64
		for j := 1; j < len(points); j++ {
			mid := (points[j-1] + points[j]) / 2
			for _, k := range kids {
				if k.start <= mid && mid < k.end {
					union += points[j] - points[j-1]
					break
				}
			}
		}
		dur := s.end - s.start
		if diff := math.Abs(float64(self[n] + union - dur)); diff > 0.01*float64(dur) {
			t.Errorf("span %d: self %d + covered %d != duration %d", i+1, self[n], union, dur)
		}
		if self[n] < 0 {
			t.Errorf("span %d: negative self time %d", i+1, self[n])
		}
		n++
	}
	if n != len(self) {
		t.Errorf("selfTimes returned %d values for %d spans", len(self), n)
	}
}

func TestCovered(t *testing.T) {
	kids := []span{{start: 5, end: 20}, {start: 10, end: 30}, {start: 50, end: 70}, {start: 90, end: 200}}
	if got := covered(kids, 0, 100); got != 25+20+10 {
		t.Errorf("covered = %d, want 55", got)
	}
	if got := covered(nil, 0, 100); got != 0 {
		t.Errorf("covered of nothing = %d", got)
	}
}

// TestQuartiles pins the spread to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestCutWindows(t *testing.T) {
	const msec = int64(time.Millisecond)
	samples := []sample{
		{due: 500 * msec, end: 600 * msec},                        // warm-up: ignored
		{due: 1000 * msec, end: 1010 * msec},                      // window 0, 10 ms
		{due: 1500 * msec, end: 1530 * msec},                      // window 0, 30 ms
		{due: 3200 * msec, end: 3205 * msec, write: true},         // window 2
		{due: 5900 * msec, end: 6000 * msec, status: stFailed},    // window 4, failed
		{due: 6000 * msec, end: 6001 * msec},                      // past the end: ignored
		{due: 5990 * msec, start: 5990 * msec, status: stDropped}, // window 4, dropped
	}
	ws := cutWindows(samples, time.Second, 5*time.Second)
	if len(ws) != 5 {
		t.Fatalf("%d windows in five seconds", len(ws))
	}
	if ws[0].Reads != 2 || ws[0].ReadP50 != 10 || ws[0].ReadP99 != 30 || ws[0].ReadMean != 20 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[2].Writes != 1 || ws[2].WriteP50 != 5 {
		t.Errorf("window 2 = %+v", ws[2])
	}
	if ws[4].Failed != 2 || ws[4].Reads != 0 || !math.IsNaN(ws[4].ReadP50) {
		t.Errorf("window 4 = %+v", ws[4])
	}
	if ws[0].OpsPerSec != 2 {
		t.Errorf("window 0 ops/s = %v, want 2 in 1 s", ws[0].OpsPerSec)
	}
	if n := len(cutWindows(nil, 0, 400*time.Millisecond)); n != 1 {
		t.Errorf("%d windows in 0.4 s, want 1", n)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "read_p50_ms", better: "lower", bound: 0.25, resolve: 0.10}
	higher := metricDef{name: "ops_s", better: "higher", bound: 0.25, resolve: 0.07}
	steady := []float64{10, 10.1, 9.9}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{10.5, 10.6, 10.4}, "ok"},
		{lower, steady, []float64{11.5, 11.6, 11.4}, "worse"},
		{lower, steady, []float64{8, 8.1, 7.9}, "ok"},
		{lower, steady, []float64{9, 12, 15}, "unresolved"},
		{higher, steady, []float64{9, 9.05, 8.95}, "worse"},
		{higher, steady, []float64{12, 12.1, 11.9}, "ok"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %v against %v = %s, want %s", c.d.name, c.b, c.a, got, c.want)
		}
	}
}
