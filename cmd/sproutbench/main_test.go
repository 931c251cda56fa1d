package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: an out-of-range flag ends run with an error that
// names it, before any experiment runs or anything is printed.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-files", "-5"},
		{"-horizon", "-1"},
		{"-horizon", "NaN"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-exp", "fig5", tc.flag, tc.value}, &out)
			if err == nil || !strings.Contains(err.Error(), tc.flag+" "+tc.value) {
				t.Fatalf("run = %v, want an error naming %s %s", err, tc.flag, tc.value)
			}
			if out.Len() != 0 {
				t.Fatalf("run printed before rejecting the flag:\n%s", out.String())
			}
		})
	}
}
