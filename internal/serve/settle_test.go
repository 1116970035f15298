package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// restoreOnly restores the job table in dir into a server whose
// scheduler and persister never start, so no restored job runs.
func restoreOnly(t *testing.T, dir string) *Server {
	t.Helper()
	s := newServer(Config{StateDir: dir})
	if err := s.restore(); err != nil {
		t.Fatal(err)
	}
	return s
}

// graphsHeld reports whether job id holds its built graph, and whether
// its request holds the submitted edges.
func graphsHeld(t *testing.T, s *Server, id string) (built, edges bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("job %s not in the table", id)
	}
	return j.g != nil, j.req.Graph.Edges != nil
}

// failingReq is a request whose solve fails every time: "exact"
// refuses a 40-node direct solve.
func failingReq() SolveRequest {
	req := erReq(40, 8, 3)
	req.Solver = "exact"
	req.MaxQubits = 40
	return req
}

// TestSettledJobDropsGraphs: a done and a failed job hold no built
// graph and no request edges once they settle, with or without a
// StateDir; with one, the job table keys them by fingerprint, so they
// still restore. A settled job still answers a resubmission from the
// cache.
func TestSettledJobDropsGraphs(t *testing.T) {
	for _, withDir := range []bool{false, true} {
		name := "memory"
		if withDir {
			name = "statedir"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{GlobalParallelism: 1}
			if withDir {
				cfg.StateDir = t.TempDir()
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			done := solveWait(t, s, ringReq(10, 7))
			failed := solveWait(t, s, failingReq())
			if done.State != JobDone || failed.State != JobFailed {
				t.Fatalf("jobs settled as %s and %s, want done and failed", done.State, failed.State)
			}
			for _, id := range []string{done.ID, failed.ID} {
				built, edges := graphsHeld(t, s, id)
				if built || edges {
					t.Errorf("settled job %s holds built graph %v, request edges %v; want neither", id, built, edges)
				}
			}
			hit, err := s.Submit(ringReq(10, 7))
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Cached || hit.Result == nil || hit.Result.Spins != done.Result.Spins {
				t.Fatalf("resubmission not answered from the cache: %+v", hit)
			}
			s.Close()
			if !withDir {
				return
			}
			r := restoreOnly(t, cfg.StateDir)
			for _, id := range []string{done.ID, failed.ID} {
				if st, err := r.Job(id); err != nil || st.State == JobQueued {
					t.Errorf("job %s did not restore settled: %+v, %v", id, st, err)
				}
			}
		})
	}
}

// TestRestoredJobsHoldGraphsOnlyWhenQueued: restored done and failed
// jobs hold no built graph; a restored queued job keeps its graph, as
// it still has to run.
func TestRestoredJobsHoldGraphsOnlyWhenQueued(t *testing.T) {
	dir := t.TempDir()
	g := setGate(t, 1, false)
	s, err := New(Config{
		GlobalParallelism: 1,
		StateDir:          dir,
		Resolve: func(r SolveRequest) (Solvers, error) {
			if r.Solver == "exact" {
				return ResolveSolvers(r)
			}
			return gatedResolve(r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	done := solveWait(t, s, ringReq(10, 1)) // the gate's free pass
	failed := solveWait(t, s, failingReq())
	if _, err := s.Submit(ringReq(8, 2)); err != nil {
		t.Fatal(err)
	}
	g.WaitBlocked(t, 1)
	queued, err := s.Submit(ringReq(12, 3))
	if err != nil {
		t.Fatal(err)
	}
	go s.Drain()
	waitDraining(t, s)
	g.Open()
	s.Close()

	r := restoreOnly(t, dir)
	for _, c := range []struct {
		id    string
		state JobState
		built bool
	}{
		{done.ID, JobDone, false},
		{failed.ID, JobFailed, false},
		{queued.ID, JobQueued, true},
	} {
		st, err := r.Job(c.id)
		if err != nil || st.State != c.state {
			t.Fatalf("job %s restored as %+v (%v), want %s", c.id, st, err, c.state)
		}
		if built, _ := graphsHeld(t, r, c.id); built != c.built {
			t.Errorf("restored %s job holds built graph %v, want %v", c.state, built, c.built)
		}
	}
}

// TestFailedRetrySolvesRebuiltGraph: a failed job dropped its graph
// when it settled, so the retry must run on the graph its resubmission
// built, and reach the cut a first-time solve of the request reaches.
func TestFailedRetrySolvesRebuiltGraph(t *testing.T) {
	var calls atomic.Int32
	s, err := New(Config{
		GlobalParallelism: 1,
		// Submit's check is the first call, the first run's the second.
		Resolve: func(r SolveRequest) (Solvers, error) {
			if calls.Add(1) == 2 {
				return Solvers{}, errors.New("resolver down")
			}
			return ResolveSolvers(r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := erReq(24, 8, 5)
	failed := solveWait(t, s, req)
	if failed.State != JobFailed || !strings.Contains(failed.Error, "resolver down") {
		t.Fatalf("first run settled as %+v, want failed by the resolver", failed)
	}
	retried := solveWait(t, s, req)
	if retried.State != JobDone || retried.Result == nil {
		t.Fatalf("retry settled as %+v, want done", retried)
	}

	fresh, err := New(Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want := solveWait(t, fresh, req)
	if retried.Result.Spins != want.Result.Spins || retried.Result.Value != want.Result.Value {
		t.Fatalf("retry cut %v %s, want %v %s", retried.Result.Value, retried.Result.Spins, want.Result.Value, want.Result.Spins)
	}
}

// TestSettledJobTableHoldsNoEdges: once a job settles on a StateDir
// server, jobs.json lists none of its edges — the record carries the
// graph fingerprint instead — and a server restarted on the directory
// answers the resubmission as a cache hit with the same id and result.
func TestSettledJobTableHoldsNoEdges(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{GlobalParallelism: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	req := erReq(30, 8, 5)
	done := solveWait(t, s, req)
	failed := solveWait(t, s, failingReq())
	if done.State != JobDone || failed.State != JobFailed {
		t.Fatalf("jobs settled as %s and %s, want done and failed", done.State, failed.State)
	}
	s.Close()

	data, err := os.ReadFile(filepath.Join(dir, jobsFile))
	if err != nil {
		t.Fatal(err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("job table lists %d jobs, want 2", len(st.Jobs))
	}
	for _, pj := range st.Jobs {
		if pj.Request.Graph.Nodes != 0 || len(pj.Request.Graph.Edges) != 0 || pj.Fingerprint == "" {
			t.Errorf("settled record %s holds %d nodes, %d edges, fingerprint %q; want a fingerprint and no graph",
				pj.ID, pj.Request.Graph.Nodes, len(pj.Request.Graph.Edges), pj.Fingerprint)
		}
	}

	r, err := New(Config{GlobalParallelism: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	hit, err := r.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.ID != done.ID || hit.Result == nil ||
		hit.Result.Spins != done.Result.Spins || hit.Result.Value != done.Result.Value {
		t.Fatalf("restarted server answered %+v, want a cache hit on %s with %+v", hit, done.ID, done.Result)
	}
}
