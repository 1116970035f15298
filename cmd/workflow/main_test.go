package main

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"qaoa2/internal/serve"
)

// TestUsageErrorsExitTwo pins the CLI contract: usage errors report to
// stderr and return 2, before any experiment runs.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "-bogus"},
		{"positional args", []string{"stray"}, "unexpected arguments"},
		{"bad workers list", []string{"-workers", "1,x"}, "bad integer list"},
		{"negative solve nodes", []string{"-solve-nodes", "-3"}, "-solve-nodes -3"},
		{"solve probability above 1", []string{"-solve-p", "2"}, "-solve-p 2 outside [0,1]"},
		{"NaN solve probability", []string{"-solve-p", "NaN"}, "-solve-p NaN outside [0,1]"},
		{"NaN solve probability, remote", []string{"-submit", "http://127.0.0.1:1", "-solve-p", "NaN"}, "-solve-p NaN"},
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

// TestSubmitDemoAgainstLiveService runs the remote-submission path
// against an in-process serve handler.
func TestSubmitDemoAgainstLiveService(t *testing.T) {
	srv, err := serve.New(serve.Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var out strings.Builder
	if err := submitDemo(&out, hs.URL, 40, 0.15, 8, 2, 7, "anneal", "anneal"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "remote solve") || !strings.Contains(got, "done: cut ") {
		t.Fatalf("submit demo output incomplete:\n%s", got)
	}
	if !strings.Contains(got, "sub-solve") {
		t.Fatalf("submit demo streamed no sub-solve events:\n%s", got)
	}

	// Resubmitting the identical instance answers from the cache
	// without streaming a second solve.
	var second strings.Builder
	if err := submitDemo(&second, hs.URL, 40, 0.15, 8, 2, 7, "anneal", "anneal"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "done: cut ") {
		t.Fatalf("cached resubmission output:\n%s", second.String())
	}

	// The registry's composite solver is selectable by name over the
	// same remote path (cmd/workflow -submit).
	var composite strings.Builder
	if err := submitDemo(&composite, hs.URL, 30, 0.2, 8, 2, 9, "best", "gw"); err != nil {
		t.Fatalf("best: %v", err)
	}
	if !strings.Contains(composite.String(), "done: cut ") {
		t.Fatalf("best submission incomplete:\n%s", composite.String())
	}
	// And a bogus name fails fast with the registry's error.
	var bogus strings.Builder
	if err := submitDemo(&bogus, hs.URL, 30, 0.2, 8, 2, 9, "bogus", "gw"); err == nil ||
		!strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("bogus solver err = %v, want registry rejection", err)
	}
}

// TestSubmitFailuresDistinguished pins the -submit exit contract: both
// failure classes exit 1 (operational, per the stderr+exit-2 usage
// convention), but the stderr message says which side broke — the
// network path to the daemon, or the job the daemon rejected.
func TestSubmitFailuresDistinguished(t *testing.T) {
	// Nothing listens on port 1: every retry is refused, the default
	// policy exhausts, and the failure names the dead daemon.
	var out, errb strings.Builder
	if code := run([]string{"-submit", "http://127.0.0.1:1", "-solve-nodes", "20"}, &out, &errb); code != 1 {
		t.Fatalf("dead daemon exited %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "daemon unreachable after retries") {
		t.Fatalf("dead daemon stderr does not name the network failure:\n%s", errb.String())
	}
	if strings.Contains(errb.String(), "job failed remotely") {
		t.Fatalf("dead daemon misattributed to the job:\n%s", errb.String())
	}

	// A live daemon rejecting the job is the other class.
	srv, err := serve.New(serve.Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	out.Reset()
	errb.Reset()
	if code := run([]string{"-submit", hs.URL, "-solve-nodes", "20", "-solve-solver", "bogus"}, &out, &errb); code != 1 {
		t.Fatalf("rejected job exited %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "job failed remotely") ||
		!strings.Contains(errb.String(), "unknown solver") {
		t.Fatalf("rejected job stderr does not name the remote failure:\n%s", errb.String())
	}
	if strings.Contains(errb.String(), "daemon unreachable") {
		t.Fatalf("rejected job misattributed to the network:\n%s", errb.String())
	}
}

func TestRuntimeDemoWithCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "demo.ckpt")
	var first strings.Builder
	if err := runtimeDemo(&first, 40, 0.15, 8, 2, 7, ckpt, "best", "anneal"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "0 restored from checkpoint") {
		t.Fatalf("fresh run reported restores:\n%s", first.String())
	}
	var second strings.Builder
	if err := runtimeDemo(&second, 40, 0.15, 8, 2, 7, ckpt, "best", "anneal"); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	if !strings.Contains(out, "restored from checkpoint)") {
		t.Fatalf("second run restored nothing:\n%s", out)
	}
	if !strings.Contains(out, "\n0 tasks solved") {
		t.Fatalf("second run re-solved tasks:\n%s", out)
	}
	// Both runs must report the same cut line.
	cutLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "cut ") {
				return line
			}
		}
		return ""
	}
	if a, b := cutLine(first.String()), cutLine(second.String()); a == "" || a != b {
		t.Fatalf("cut lines differ: %q vs %q", a, b)
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 8 {
		t.Fatalf("parsed %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad list accepted")
	}
}
