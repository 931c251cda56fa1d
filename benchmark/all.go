package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// runRecord is one phase's result as kept in a result file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	result
}

// resultFile is what runAll writes and -compare reads.
type resultFile struct {
	GoVersion string      `json:"go"`
	Runs      []runRecord `json:"runs"`
}

// runAll runs every workload, timed then traced, each phase in a process of
// its own so that cpu_ms_per_op and peak_rss_mb belong to one workload, and
// writes outdir/result.json.
func runAll(ctx context.Context, seed int64, seconds float64, runs int, outdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{GoVersion: runtime.Version()}
	for n := 0; n < runs; n++ {
		for _, wl := range workloads {
			for trace := 0; trace <= 1; trace++ {
				rec, err := runChild(ctx, self, wl.name, seed, seconds, trace, outdir)
				if err != nil {
					return fmt.Errorf("%s, trace %d: %w", wl.name, trace, err)
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outdir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, rec := range file.Runs {
		if !rec.Correct {
			return errWrongBytes
		}
	}
	return nil
}

// runChild runs one phase in a child process, passes its table through and
// parses the result from its last line.
func runChild(ctx context.Context, self, name string, seed int64, seconds float64, trace int, outdir string) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Trace: trace}
	cmd := exec.CommandContext(ctx, self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-outdir", outdir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimRight(stdout, "\n"), []byte("\n"))
	if table := lines[:len(lines)-1]; len(table) > 0 {
		fmt.Printf("%s\n", bytes.Join(table, []byte("\n")))
	}
	// A child that read wrong bytes still prints its result, then exits 1.
	if perr := json.Unmarshal(lines[len(lines)-1], &rec.result); perr != nil {
		if err != nil {
			return rec, err
		}
		return rec, fmt.Errorf("parsing the phase's last line: %w", perr)
	}
	return rec, nil
}
