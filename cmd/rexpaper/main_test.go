package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke drives the experiment harness end to end on a tiny
// synthetic workload: one pair per bucket at 5% scale keeps it fast
// while still exercising workload construction and table rendering.
func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "fig8", "-pairs", "1", "-scale", "0.05", "-quick"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "workload:") {
		t.Errorf("output missing the workload header:\n%s", s)
	}
	if !strings.Contains(s, "Figure 8") {
		t.Errorf("output missing the Figure 8 table:\n%s", s)
	}
}

// TestRunFlagHandling checks help and flag-error exit codes.
func TestRunFlagHandling(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h: exit code = %d, want 0", code)
	}
	if code := run([]string{"-scale", "not-a-number"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit code = %d, want 2", code)
	}
	// An experiment selector that matches nothing runs nothing and
	// still exits cleanly.
	out.Reset()
	if code := run([]string{"-exp", "nonesuch"}, &out, &errOut); code != 0 {
		t.Errorf("unmatched -exp: exit code = %d, want 0", code)
	}
	if out.Len() != 0 {
		t.Errorf("unmatched -exp produced output: %s", out.String())
	}
}
