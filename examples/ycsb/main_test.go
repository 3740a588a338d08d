package main

import (
	"strings"
	"testing"
)

// TestRun runs the comparison at a small size: every workload row reports a
// throughput for each of the three designs.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 1000, 1); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, " ops/s "); n != 12 {
		t.Fatalf("%d result lines, want 4 workloads × 3 designs:\n%s", n, got)
	}
}
