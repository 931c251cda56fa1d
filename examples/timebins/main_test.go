package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRun replays the three Table I bins end to end: every read must
// succeed, the estimator must trigger at least one re-plan, and the cache
// must serve chunks.
func TestRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"across 3 time bins",
		"bin 1 allocation: ",
		"re-planned at t=",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`\d+ plan updates \([1-9]\d* triggered by the estimator\)`),
		regexp.MustCompile(`chunks served from cache: [1-9]\d*,`),
	} {
		if !want.MatchString(out.String()) {
			t.Errorf("output does not match %q:\n%s", want, out.String())
		}
	}
}
