// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation section. Each experiment is a
// pure function from a Config to a structured result that both the
// sproutbench CLI and the Go benchmark suite print or assert on.
//
// README.md maps each experiment to its figure or plane (the sproutbench
// lines under "Quickstart" and each plane's section) and records the
// measured results next to the design they check.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Config scales the experiments. The zero value selects the paper-scale
// defaults; reduced scales are used by the Go benchmark suite so the whole
// suite completes quickly.
type Config struct {
	// Files is the number of files/objects in the large simulations
	// (paper: 1000).
	Files int
	// SimHorizon is the simulated duration (seconds) for discrete-event
	// validation runs.
	SimHorizon float64
	// Seed drives all randomness.
	Seed int64
}

// Paper returns the full paper-scale configuration.
func Paper() Config {
	return Config{Files: 1000, SimHorizon: 20000, Seed: 1}
}

// Quick returns a reduced configuration for fast benchmark runs.
func Quick() Config {
	return Config{Files: 150, SimHorizon: 5000, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := Paper()
	if c.Files <= 0 {
		c.Files = d.Files
	}
	if c.SimHorizon <= 0 {
		c.SimHorizon = d.SimHorizon
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	// Metrics are the experiment's machine-readable scalars, emitted by
	// sproutbench -json and compared against checked-in baselines by the CI
	// bench-regression gate (cmd/benchgate).
	Metrics []Metric
}

// Metric is one machine-readable scalar an experiment measured. The gate
// fields travel with the value so the baseline file is self-describing:
// HigherIsBetter orients the comparison, Tolerance is the allowed relative
// regression before the gate fails (0 = use the gate's default), and
// AbsTolerance is the absolute allowance applied when the baseline is zero
// and lower is better — relative slack on zero is meaningless, so without it
// any positive value fails.
//
// Prefer dimensionless ratios (speedups, shares, counts of violated
// invariants) for gated metrics — they are stable across machines. Absolute
// throughput and latency metrics should carry a generous Tolerance or be
// left ungated (Tolerance < 0). Count-of-bad-events metrics whose ideal is
// zero but that can tick up under CI timing noise should carry a small
// AbsTolerance instead of gating strictly on zero.
type Metric struct {
	Name           string  `json:"name"`
	Value          float64 `json:"value"`
	Unit           string  `json:"unit,omitempty"`
	HigherIsBetter bool    `json:"higher_is_better"`
	Tolerance      float64 `json:"tolerance,omitempty"`
	AbsTolerance   float64 `json:"abs_tolerance,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddMetric appends one machine-readable scalar. tolerance < 0 marks the
// metric informational (never gated); 0 means the gate default.
func (t *Table) AddMetric(name string, value float64, unit string, higherIsBetter bool, tolerance float64) {
	t.Metrics = append(t.Metrics, Metric{
		Name: name, Value: value, Unit: unit,
		HigherIsBetter: higherIsBetter, Tolerance: tolerance,
	})
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, cell)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string   { return fmt.Sprintf("%.4f", v) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func i64toa(v int64) string { return fmt.Sprintf("%d", v) }
