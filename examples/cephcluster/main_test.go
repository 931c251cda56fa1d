package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestRun runs the example end to end: it must write every object through
// the striped writers, read each back through the LRU tier and all four
// equivalent pools, and finish well inside its deadline.
func TestRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"wrote 12 objects of 512 KiB through the striped TCP writers",
		"functional caching d=0:",
		"functional caching d=3:",
		"LRU cache tier:",
		"0 overload rejections, 0 decode errors",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
