package main

import (
	"strings"
	"testing"
)

// TestRun runs the quickstart on a small data set: every design must find
// key 4242 (value 42420), see the inserted duplicate, and sum the ten
// values of keys 1000..1009.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 5000); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"[42420]", "[42420 99999]", "10 entries, value sum 100450"} {
		if n := strings.Count(got, want); n != 3 {
			t.Errorf("%q appears %d times, want once per design:\n%s", want, n, got)
		}
	}
}
