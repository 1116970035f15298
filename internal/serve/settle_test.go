package serve

import (
	"errors"
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
// graph once they settle, and without a StateDir their requests hold no
// edges either. With a StateDir the request keeps its graph, so the job
// table still lists it and the job restores. A settled job still
// answers a resubmission from the cache.
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
				if built || edges != withDir {
					t.Errorf("settled job %s holds built graph %v, request edges %v; want false, %v", id, built, edges, withDir)
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
