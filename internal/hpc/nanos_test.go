package hpc

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"qaoa2/internal/graph"
	q2 "qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// delayTransport adds fixed latency to every request, so two runs of
// the same workload observe very different attempt timings.
type delayTransport struct {
	inner http.RoundTripper
	d     time.Duration
}

func (t delayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	time.Sleep(t.d)
	return t.inner.RoundTrip(r)
}

// TestTimingNeverEntersCheckpoints pins the telemetry/identity split
// for remote dispatch: Attempts[].Nanos (and every other wall-time
// measurement) is telemetry only. Two runs whose attempts take very
// different wall times must produce checkpoints with byte-identical
// canonical forms (header + records by key: the append order is the
// workers' completion order, which is scheduling, not timing leaking
// into a record) and identical fingerprints, and runs restored from
// either checkpoint must re-attribute identically with zero Nanos.
func TestTimingNeverEntersCheckpoints(t *testing.T) {
	big := graph.ErdosRenyi(36, 0.15, graph.Unweighted, rng.New(5))
	dir := t.TempDir()

	run := func(name string, delay time.Duration) (string, *q2.Result) {
		_, client := startService(t)
		if delay > 0 {
			client.HTTP = &http.Client{Transport: delayTransport{inner: client.HTTP.Transport, d: delay}}
		}
		path := filepath.Join(dir, name+".ckpt")
		res, err := q2.Solve(big, q2.Options{
			MaxQubits:      8,
			Solver:         RemoteSolver{Client: client},
			MergeSolver:    solver.AnnealSolver{},
			Seed:           4,
			CheckpointPath: path,
		})
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		return path, res
	}

	fastPath, fastRes := run("fast", 0)
	slowPath, slowRes := run("slow", 25*time.Millisecond)

	if fastRes.Cut.Value != slowRes.Cut.Value {
		t.Fatalf("timing changed the result: %v vs %v", fastRes.Cut.Value, slowRes.Cut.Value)
	}
	fast, err := os.ReadFile(fastPath)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := os.ReadFile(slowPath)
	if err != nil {
		t.Fatal(err)
	}
	if cf, cs := rt.CanonicalRecords(fast), rt.CanonicalRecords(slow); !bytes.Equal(cf, cs) {
		t.Fatalf("attempt timing leaked into the checkpoint:\nfast:\n%s\nslow:\n%s", cf, cs)
	}
	fh, err := rt.SniffHeader(fast)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := rt.SniffHeader(slow)
	if err != nil {
		t.Fatal(err)
	}
	if fh.Fingerprint() != sh.Fingerprint() {
		t.Fatalf("fingerprints diverged: %s vs %s", fh.Fingerprint(), sh.Fingerprint())
	}

	// Restored attribution is a pure function of the checkpoint, so
	// resuming from either run's checkpoint re-attributes identically —
	// and carries no wall time. Each resume talks to a FRESH daemon:
	// RemoteSolver's config tag must not depend on client identity, or
	// no process could ever resume another's remote-dispatched run.
	resume := func(path string) []rt.Event {
		_, client := startService(t)
		var events []rt.Event
		_, err := q2.Solve(big, q2.Options{
			MaxQubits:      8,
			Solver:         RemoteSolver{Client: client},
			MergeSolver:    solver.AnnealSolver{},
			Seed:           4,
			CheckpointPath: path,
			OnRuntimeEvent: func(ev rt.Event) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatalf("resume from %s: %v", path, err)
		}
		// Events arrive in completion order; compare them by task.
		sort.Slice(events, func(i, j int) bool { return events[i].Task < events[j].Task })
		return events
	}
	fastEvents := resume(fastPath)
	slowEvents := resume(slowPath)
	if len(fastEvents) == 0 || len(fastEvents) != len(slowEvents) {
		t.Fatalf("resume event counts differ: %d vs %d", len(fastEvents), len(slowEvents))
	}
	restored := 0
	for i := range fastEvents {
		fe, se := fastEvents[i], slowEvents[i]
		if fe.Task != se.Task || fe.Kind != se.Kind || fe.Solver != se.Solver || fe.Restored != se.Restored {
			t.Fatalf("restored attribution diverged at %d:\n%+v\nvs\n%+v", i, fe, se)
		}
		if fe.Restored {
			restored++
			if fe.Nanos != 0 || se.Nanos != 0 {
				t.Fatalf("restored event %s carries wall time: %d / %d", fe.Task, fe.Nanos, se.Nanos)
			}
			if fe.Attempts != nil || se.Attempts != nil {
				t.Fatalf("restored event %s carries attempt telemetry", fe.Task)
			}
		}
	}
	if restored == 0 {
		t.Fatal("resume recomputed everything; checkpoint was not used")
	}
}
