package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	var errb strings.Builder
	if code := run([]string{"-bogus"}, io.Discard, &errb); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if code := run([]string{"-kill", "-workers", "1"}, io.Discard, &errb); code != 2 {
		t.Fatalf("-kill with one worker exited %d, want 2", code)
	}
}

// TestSoakSmall runs the full harness at smoke scale: 3 workers, a
// kill mid-soak, bit-identity verification on, bench JSON out.
func TestSoakSmall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	var out, errb bytes.Buffer
	code := run([]string{"-jobs", "24", "-json", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "qaoa2-fleetload/v1" || rep.Jobs != 24 || !rep.Killed {
		t.Fatalf("report: %+v", rep)
	}
	if rep.P99Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("implausible latency percentiles: %+v", rep)
	}
	if !rep.Verified || rep.Mismatches != 0 {
		t.Fatalf("verification: %+v", rep)
	}
}

// TestVerdicts: fleetload fails a soak whose results diverged from the
// reference and a kill soak with no recovery; a clean kill soak, a
// steady-state soak and an unverified one pass.
func TestVerdicts(t *testing.T) {
	clean := report{Schema: "qaoa2-fleetload/v1", Workers: 3, Jobs: 120, Killed: true,
		Failovers: 2, Reparks: 1, Verified: true}
	for _, tc := range []struct {
		name string
		edit func(*report)
		want string // "" passes
	}{
		{"clean kill soak", func(*report) {}, ""},
		{"diverged", func(r *report) { r.Mismatches = 3 }, "diverged"},
		{"kill without recovery", func(r *report) { r.Failovers, r.Reparks = 0, 0 }, "recovery"},
		{"re-park alone recovers", func(r *report) { r.Failovers = 0 }, ""},
		{"steady state", func(r *report) { r.Killed, r.Failovers, r.Reparks = false, 0, 0 }, ""},
		{"unverified", func(r *report) { r.Verified = false }, ""},
	} {
		rep := clean
		tc.edit(&rep)
		err := rep.verdict()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: verdict %v, want a failure naming %q", tc.name, err, tc.want)
		}
	}
}
