package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestRun runs the quickstart end to end: the plan must use the whole cache,
// every read must return the encoded bytes, and the second pass must read
// the planned chunks from the cache the first pass filled.
func TestRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"cache chunks used: 8 / 8",
		"after pass 1: reads=10 chunks from cache=0,",
		"after pass 2: reads=20 chunks from cache=8,",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
