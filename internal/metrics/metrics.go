// Package metrics is a small, dependency-free metrics layer: a registry of
// named metric families (counters, gauges, histograms) rendered in the
// Prometheus text exposition format. It exists so every plane's existing
// stats structs — transport counters, controller read/write stats, repair
// progress, OSD health, cache occupancy — can be bridged into one scrapeable
// endpoint without adding a client-library dependency.
//
// Families are fed by collectors (CollectorFunc) that pull values out of
// existing stats structs at scrape time, so the hot paths keep their atomic
// counters and pay nothing for the exporter. The one live instrument is
// Histogram, the lock-free log2 latency histogram every plane records into;
// its snapshots carry the delta, fold and quantile arithmetic as well as the
// conversion to the exposition's HistValue.
package metrics

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// Kind is the metric family type.
type Kind int

// Metric family kinds, mirroring the Prometheus text-format TYPE values.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Desc describes one metric family: its name, help text, kind, and the
// label names every sample must carry (in order).
type Desc struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string
}

// Sample is one exported value of a family. LabelValues pairs positionally
// with Desc.Labels. Counters and gauges use Value; histograms use Hist.
type Sample struct {
	LabelValues []string
	Value       float64
	Hist        *HistValue
}

// HistValue is one histogram's bucketed distribution. Counts[i] is the
// number of observations in bucket i (NOT cumulative); bucket i covers
// (UpperBounds[i-1], UpperBounds[i]] and the final bucket, Counts[len(UpperBounds)],
// is the +Inf overflow. Sum is in the same unit as the bounds (seconds for
// latency histograms).
type HistValue struct {
	UpperBounds []float64
	Counts      []uint64
	Sum         float64
	Count       uint64
}

// Collector produces the current samples of one family at scrape time.
type Collector interface {
	Collect() []Sample
}

// CollectorFunc adapts a closure to the Collector interface.
type CollectorFunc func() []Sample

// Collect implements Collector.
func (f CollectorFunc) Collect() []Sample { return f() }

// family pairs a registered Desc with its collector.
type family struct {
	desc Desc
	col  Collector
}

// Family is one gathered metric family: its description and current samples.
type Family struct {
	Desc    Desc
	Samples []Sample
}

// Registry holds registered metric families and renders them on demand.
// Registration is typically done once at startup; Gather and WriteText are
// safe for concurrent use with registration.
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

var (
	nameRE  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// Register adds a family backed by the collector. It rejects duplicate or
// malformed names and malformed label names: scrape-time failures are the
// wrong place to find out a metric was misnamed.
func (r *Registry) Register(d Desc, c Collector) error {
	if !nameRE.MatchString(d.Name) {
		return fmt.Errorf("metrics: invalid metric name %q", d.Name)
	}
	for _, l := range d.Labels {
		if !labelRE.MatchString(l) {
			return fmt.Errorf("metrics: metric %s: invalid label name %q", d.Name, l)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[d.Name] {
		return fmt.Errorf("metrics: duplicate metric name %q", d.Name)
	}
	r.names[d.Name] = true
	r.families = append(r.families, &family{desc: d, col: c})
	return nil
}

// MustRegister is Register, panicking on error (registration happens at
// startup where a bad name is a programming error).
func (r *Registry) MustRegister(d Desc, c Collector) {
	if err := r.Register(d, c); err != nil {
		panic(err)
	}
}

// Descs returns the registered family descriptions sorted by name.
func (r *Registry) Descs() []Desc {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Desc, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f.desc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gather collects every family's current samples, sorted by family name.
// A collector returning a sample with the wrong label-value count is
// reported as a malformed family (its samples are dropped) rather than
// producing a corrupt exposition.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].desc.Name < fams[j].desc.Name })
	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		samples := f.col.Collect()
		kept := samples[:0:0]
		for _, s := range samples {
			if len(s.LabelValues) != len(f.desc.Labels) {
				continue
			}
			if f.desc.Kind == KindHistogram && s.Hist == nil {
				continue
			}
			kept = append(kept, s)
		}
		out = append(out, Family{Desc: f.desc, Samples: kept})
	}
	return out
}
