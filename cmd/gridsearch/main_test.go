package main

import (
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo pins the CLI contract the other commands
// already follow: usage errors report to stderr and return 2, nothing
// is written to stdout.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "-bogus"},
		{"positional args", []string{"stray"}, "unexpected arguments"},
		{"unknown backend", []string{"-backend", "bogus"}, "bogus"},
		{"deleted selector flag", []string{"-selector"}, "-selector"},
	}
	for _, tc := range cases {
		var out, errb strings.Builder
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Fatalf("%s: exited %d, want 2", tc.name, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Fatalf("%s: stderr missing %q:\n%s", tc.name, tc.want, errb.String())
		}
		if out.Len() > 0 {
			t.Fatalf("%s: usage error wrote to stdout:\n%s", tc.name, out.String())
		}
	}
}

// TestRunTinyGridEndToEnd exercises the happy path on a one-cell grid
// (overridden via the experiment seed; the default laptop grid is too
// slow for unit tests, so this drives run() with the smallest config
// the flags can reach — the table1 reduced block is the cheapest).
func TestRunTinyGridEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search in -short mode")
	}
	var out, errb strings.Builder
	if code := run([]string{"-table1", "-seed", "7"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table1 (top)") {
		t.Fatalf("output missing the Table1 header:\n%s", out.String())
	}
}
