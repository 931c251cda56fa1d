package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRun runs the example end to end: every live read must return one
// whole cut of its title, the mid-run re-ingest must commit, no auto-replan
// may be rejected, and the auto-replanner must leave the viral title with
// its whole planned allocation cached.
func TestRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"Sprout functional:",
		" auto-replans (0 rejected)",
		"re-ingested viral title mid-run: 1 write(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	m := regexp.MustCompile(`viral title now holds (\d+) cache chunks \(planned (\d+)\)`).FindStringSubmatch(out.String())
	if m == nil || m[1] != m[2] || m[2] == "0" {
		t.Errorf("viral title is not fully cached at its planned allocation:\n%s", out.String())
	}
}
