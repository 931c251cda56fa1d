package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// timedValues collects one end-to-end metric of one workload over the timed
// runs of a result file.
func (f resultFile) timedValues(name, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == name && r.Trace == 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges b against the base a for one metric by the metric's resolve
// bound. worse: b's median is beyond the bound on the bad side of a's.
// unresolved: either side's runs spread (interquartile range over median)
// wider than the bound, so the medians cannot tell.
func verdict(d metricDef, a, b []float64) (ma, mb float64, v string) {
	ma, mb = median(a), median(b)
	var change float64
	if ma != 0 {
		change = (mb - ma) / ma
		if d.better == "higher" {
			change = -change
		}
	}
	switch {
	case spread(a) > d.resolve || spread(b) > d.resolve:
		v = "unresolved"
	case change > d.resolve:
		v = "worse"
	default:
		v = "ok"
	}
	return ma, mb, v
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict. It fails if any is
// worse.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("base a = %s, b = %s; ratio is b/a\n", pathA, pathB)
	fmt.Printf("%-14s %-14s %7s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "a", "b", "b/a", "spread_a", "spread_b", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.timedValues(wl.name, d.name), b.timedValues(wl.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb, v := verdict(d, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-14s %-14s %3d/%-3d %12.5g %12.5g %8.4f %8.4f %8.4f %6.2f  %s (%s is better)\n",
				wl.name, d.name, len(va), len(vb), ma, mb, ratio(mb, ma), spread(va), spread(vb), d.resolve, v, d.better)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
