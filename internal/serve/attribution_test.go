package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// End-to-end attribution over the service surface: the composite
// solver submitted BY NAME through the registry reports, in both the
// job result and the event stream, the member that actually produced
// each kept cut — with per-member attempts and timing.
func TestServeCompositeAttributionEndToEnd(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	g := graph.ErdosRenyi(36, 0.25, graph.Unweighted, rng.New(6))
	const name = "best"
	st, err := s.Submit(SolveRequest{
		Graph:     GraphSpecOf(g),
		MaxQubits: 6,
		Solver:    name,
		Merge:     "one-exchange",
		Layers:    1,
		Seed:      4,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	done, err := s.Done(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: job did not settle", name)
	}
	final, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("%s: state %s (err %q)", name, final.State, final.Error)
	}
	// Result-side attribution: reports name a concrete member,
	// never the composite itself, and carry its attempts.
	if len(final.Result.Reports) == 0 {
		t.Fatalf("%s: no sub-reports", name)
	}
	for i, r := range final.Result.Reports {
		if r.Solver == name || r.Solver == "" {
			t.Fatalf("%s: report %d attributed to %q, want the winning member", name, i, r.Solver)
		}
		if len(r.Attempts) == 0 {
			t.Fatalf("%s: report %d has no attempts", name, i)
		}
		assertWinnerAmongAttempts(t, name, r.Solver, r.Value, r.Attempts)
	}
	// Stream-side attribution: sub-solve events carry the same
	// member names, attempts, and a wall time.
	evs, _, _, _, err := s.eventsFrom(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	saw := 0
	for _, ev := range evs {
		// Stage 0 sub-solves run the composite under test; deeper
		// stages re-divide the merge graph with the PLAIN merge
		// solver, so they carry no attempts.
		if ev.Kind != "sub-solve" || ev.Stage != 0 {
			continue
		}
		saw++
		if ev.Solver == name || ev.Solver == "" {
			t.Fatalf("%s: event %s attributed to %q", name, ev.Task, ev.Solver)
		}
		if len(ev.Attempts) == 0 || ev.Nanos <= 0 {
			t.Fatalf("%s: event %s missing telemetry: attempts %d nanos %d",
				name, ev.Task, len(ev.Attempts), ev.Nanos)
		}
		assertWinnerAmongAttempts(t, name, ev.Solver, ev.Value, ev.Attempts)
	}
	if saw == 0 {
		t.Fatalf("%s: stream carried no sub-solve events", name)
	}
}

// TestSkippedAttemptsReachTheWire: "best" submitted by name over HTTP
// on an integer-weighted graph certifies its QAOA leaves and skips GW;
// the NDJSON stream and the job result still list both members for
// every leaf, the skipped one as {"solver":"gw","err":"skipped:optimal"}.
func TestSkippedAttemptsReachTheWire(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}

	g := graph.ErdosRenyi(36, 0.25, graph.Unweighted, rng.New(6))
	var evs []Event
	st, err := c.Solve(context.Background(), SolveRequest{
		Graph: GraphSpecOf(g), MaxQubits: 6, Solver: "best", Merge: "one-exchange", Layers: 2, Seed: 4,
	}, func(ev Event) { evs = append(evs, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("state %s (err %q)", st.State, st.Error)
	}
	skipped := solver.Attempt{Solver: "gw", Err: solver.SkippedOptimal}
	check := func(where string, attempts []solver.Attempt) bool {
		t.Helper()
		if len(attempts) != 2 || attempts[0].Solver != "qaoa" || attempts[0].Err != "" {
			t.Fatalf("%s: attempts %+v, want qaoa then gw", where, attempts)
		}
		if attempts[1].Err != "" && attempts[1] != skipped {
			t.Fatalf("%s: second attempt %+v, want a gw result or a bare skipped entry", where, attempts[1])
		}
		return attempts[1] == skipped
	}
	streamed, reported := 0, 0
	for _, ev := range evs {
		if ev.Kind == "sub-solve" && ev.Stage == 0 && check("event "+ev.Task, ev.Attempts) {
			streamed++
		}
	}
	for _, r := range st.Result.Reports {
		if check("report", r.Attempts) {
			reported++
		}
	}
	if streamed == 0 || streamed != reported {
		t.Fatalf("skipped attempts: %d on the stream, %d in the result; want the same non-zero count", streamed, reported)
	}
}

// assertWinnerAmongAttempts checks the winner appears in the attempt
// list with exactly the kept value.
func assertWinnerAmongAttempts(t *testing.T, label, winner string, value float64, attempts []solver.Attempt) {
	t.Helper()
	for _, a := range attempts {
		if a.Solver == winner && a.Value == value && a.Err == "" {
			return
		}
	}
	t.Fatalf("%s: winner %q/%v not among attempts %+v", label, winner, value, attempts)
}

// TestServeSolverNamesKeyJobs: registry names survive normalization
// as given, and the solver name lands in the job key so distinct
// solvers never coalesce.
func TestServeSolverNamesKeyJobs(t *testing.T) {
	g := graph.ErdosRenyi(10, 0.4, graph.Unweighted, rng.New(2))
	reqA := SolveRequest{Graph: GraphSpecOf(g), Solver: "qaoa", Merge: "gw", Seed: 1}
	reqB := SolveRequest{Graph: GraphSpecOf(g), Solver: "best", Merge: "gw", Seed: 1}
	a, err := reqA.normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := reqB.normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp := "x"
	if a.key(fp) == b.key(fp) {
		t.Fatal("different solvers share a job key")
	}
	if a.Solver != "qaoa" || b.Solver != "best" {
		t.Fatalf("normalize rewrote the solver names to %q, %q", a.Solver, b.Solver)
	}
}
