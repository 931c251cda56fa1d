package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// value registers a label-less family of the given kind whose one sample is v.
func value(reg *Registry, name, help string, kind Kind, v float64) {
	reg.MustRegister(Desc{Name: name, Help: help, Kind: kind},
		CollectorFunc(func() []Sample { return []Sample{{Value: v}} }))
}

func TestCounterGaugeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	value(reg, "sprout_test_ops_total", "ops", KindCounter, 5)
	value(reg, "sprout_test_depth_requests", "queue depth", KindGauge, 3)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP sprout_test_ops_total ops",
		"# TYPE sprout_test_ops_total counter",
		"sprout_test_ops_total 5",
		"# TYPE sprout_test_depth_requests gauge",
		"sprout_test_depth_requests 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	fams, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("strict parse of own output: %v", err)
	}
	if got := fams["sprout_test_ops_total"].Samples[0].Value; got != 5 {
		t.Errorf("parsed counter = %v, want 5", got)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	reg.MustRegister(Desc{Name: "sprout_test_latency_seconds", Help: "latency", Kind: KindHistogram},
		CollectorFunc(func() []Sample { return []Sample{{Hist: h.Buckets().HistValue()}} }))
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Microsecond, time.Millisecond, time.Second} {
		h.Observe(d)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("strict parse: %v", err)
	}
	fam := fams["sprout_test_latency_seconds"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("missing histogram family: %+v", fam)
	}
	var infCount, count float64
	for _, s := range fam.Samples {
		if s.Labels["le"] == "+Inf" {
			infCount = s.Value
		}
		if strings.HasSuffix(s.Series, "_count") {
			count = s.Value
		}
	}
	if infCount != 4 || count != 4 {
		t.Errorf("+Inf bucket %v / count %v, want 4 / 4", infCount, count)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Desc{Name: "Bad-Name", Help: "x"}, CollectorFunc(func() []Sample { return nil })); err == nil {
		t.Error("Register accepted a malformed name")
	}
	if err := reg.Register(Desc{Name: "sprout_ok_total", Help: "x"}, CollectorFunc(func() []Sample { return nil })); err != nil {
		t.Errorf("Register rejected a valid name: %v", err)
	}
	if err := reg.Register(Desc{Name: "sprout_ok_total", Help: "x"}, CollectorFunc(func() []Sample { return nil })); err == nil {
		t.Error("Register accepted a duplicate name")
	}
	if err := reg.Register(Desc{Name: "sprout_l_total", Labels: []string{"Bad Label"}, Help: "x"},
		CollectorFunc(func() []Sample { return nil })); err == nil {
		t.Error("Register accepted a malformed label")
	}
}

func TestLintFlagsViolations(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Desc{Name: "sprout_good_total", Help: "counts", Kind: KindCounter},
		CollectorFunc(func() []Sample { return []Sample{{Value: 1}} }))
	reg.MustRegister(Desc{Name: "bad_namespace_total", Help: "counts", Kind: KindCounter},
		CollectorFunc(func() []Sample { return nil }))
	reg.MustRegister(Desc{Name: "sprout_no_suffix", Help: "counts", Kind: KindCounter},
		CollectorFunc(func() []Sample { return nil }))
	reg.MustRegister(Desc{Name: "sprout_no_help_total", Help: "", Kind: KindCounter},
		CollectorFunc(func() []Sample { return nil }))
	reg.MustRegister(Desc{Name: "sprout_gauge_wat", Help: "x", Kind: KindGauge},
		CollectorFunc(func() []Sample { return nil }))
	reg.MustRegister(Desc{Name: "sprout_hist_ms", Help: "x", Kind: KindHistogram},
		CollectorFunc(func() []Sample { return nil }))
	issues := Lint(reg)
	wantSubstrings := []string{
		"bad_namespace_total: missing sprout_ namespace",
		"sprout_no_suffix: counter name must end in _total",
		"sprout_no_help_total: empty help",
		"sprout_gauge_wat: gauge name must end in a unit suffix",
		"sprout_hist_ms: histogram name must end in _seconds",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, issue := range issues {
			if strings.Contains(issue, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lint issues missing %q; got %v", want, issues)
		}
	}
	for _, issue := range issues {
		if strings.HasPrefix(issue, "sprout_good_total:") {
			t.Errorf("lint flagged the conforming metric: %s", issue)
		}
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without type": "sprout_x_total 1\n",
		"duplicate series": "# HELP sprout_x_total x\n# TYPE sprout_x_total counter\n" +
			"sprout_x_total 1\nsprout_x_total 2\n",
		"non-cumulative buckets": "# HELP sprout_h_seconds h\n# TYPE sprout_h_seconds histogram\n" +
			"sprout_h_seconds_bucket{le=\"0.1\"} 5\nsprout_h_seconds_bucket{le=\"1\"} 3\n" +
			"sprout_h_seconds_bucket{le=\"+Inf\"} 5\nsprout_h_seconds_sum 1\nsprout_h_seconds_count 5\n",
		"missing inf bucket": "# HELP sprout_h_seconds h\n# TYPE sprout_h_seconds histogram\n" +
			"sprout_h_seconds_bucket{le=\"0.1\"} 5\nsprout_h_seconds_sum 1\nsprout_h_seconds_count 5\n",
		"inf bucket disagrees with count": "# HELP sprout_h_seconds h\n# TYPE sprout_h_seconds histogram\n" +
			"sprout_h_seconds_bucket{le=\"+Inf\"} 4\nsprout_h_seconds_sum 1\nsprout_h_seconds_count 5\n",
		"bad value": "# HELP sprout_x_total x\n# TYPE sprout_x_total counter\nsprout_x_total abc\n",
	}
	for name, text := range cases {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: strict parser accepted malformed exposition", name)
		}
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	reg := NewRegistry()
	value(reg, "sprout_handler_ops_total", "ops", KindCounter, 7)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	fams, err := ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse served exposition: %v", err)
	}
	if fams["sprout_handler_ops_total"].Samples[0].Value != 7 {
		t.Error("served counter value wrong")
	}
}

// TestHistogramConcurrentObserve: snapshots taken while writers run are
// self-consistent (Count is the bucket sum, which is what keeps _count equal
// to the +Inf bucket), and at quiescence no observation is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := h.Buckets()
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.Count || s.HistValue().Count != uint64(sum) {
			t.Fatalf("snapshot count %d disagrees with its bucket sum %d", s.Count, sum)
		}
	}
	if got := h.Buckets().Count; got != 8000 {
		t.Errorf("count at quiescence = %d, want 8000", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Desc{Name: "sprout_esc_total", Help: "x", Kind: KindCounter, Labels: []string{"path"}},
		CollectorFunc(func() []Sample {
			return []Sample{{LabelValues: []string{`a"b\c`}, Value: 1}}
		}))
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse escaped labels: %v", err)
	}
	if got := fams["sprout_esc_total"].Samples[0].Labels["path"]; got != `a"b\c` {
		t.Errorf("label round trip = %q", got)
	}
}

func TestGaugeNaNAndInf(t *testing.T) {
	reg := NewRegistry()
	value(reg, "sprout_inf_ratio", "x", KindGauge, math.Inf(1))
	value(reg, "sprout_neginf_ratio", "x", KindGauge, math.Inf(-1))
	value(reg, "sprout_nan_ratio", "x", KindGauge, math.NaN())
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sprout_inf_ratio +Inf\n", "sprout_neginf_ratio -Inf\n", "sprout_nan_ratio NaN\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, sb.String())
		}
	}
	if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
		t.Errorf("strict parse of non-finite values: %v", err)
	}
}
