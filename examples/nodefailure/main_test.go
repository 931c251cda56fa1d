package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestRun runs the failure drill end to end: the heartbeat must mark both
// killed OSDs down and then back up, repair must leave no object degraded,
// every read must succeed, and membership must be empty at exit.
func TestRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"heartbeat: OSD 3 DOWN",
		"heartbeat: OSD 7 DOWN",
		"heartbeat: OSD 3 UP",
		"heartbeat: OSD 7 UP",
		", 0 objects degraded",
		" reads (0 errors)",
		"down list at exit: [] ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
