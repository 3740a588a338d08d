package main

import (
	"strings"
	"testing"
)

// TestRun drives the demo session against a small index over real TCP.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 2000); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"OK [49]", "OK [49 777]", "| 105 = 11025", "OK 6 entries", "OK [1]"} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript lacks %q:\n%s", want, got)
		}
	}
}
