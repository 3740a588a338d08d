package main

import (
	"strings"
	"testing"
)

// TestRun renders the four model explorations.
func TestRun(t *testing.T) {
	var out strings.Builder
	run(&out)
	got := out.String()
	for _, want := range []string{"Maximal throughput", "skew amplification", "page size", "Hash vs range"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
