package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/ising"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// testGate instruments and throttles the test solver. Solvers consult
// it through the package-level `gate` variable so the solver structs
// themselves stay free of channels and function values — the runtime
// checkpoint header fingerprints solver configuration with %#v, and a
// resumed run must print the identical tag.
type testGate struct {
	mu            sync.Mutex
	cond          *sync.Cond
	open          bool
	free          int // solves allowed through while the gate is closed
	blocked       int
	concurrent    int
	maxConcurrent int
	solves        int
	order         []int // graph sizes, in solver-entry order
}

var (
	gateMu sync.Mutex
	gate   *testGate
)

// setGate installs a fresh gate for one test and returns it.
func setGate(t *testing.T, free int, open bool) *testGate {
	t.Helper()
	g := &testGate{open: open, free: free}
	g.cond = sync.NewCond(&g.mu)
	gateMu.Lock()
	gate = g
	gateMu.Unlock()
	t.Cleanup(func() {
		g.Open() // release any straggler so goroutines drain
		gateMu.Lock()
		gate = nil
		gateMu.Unlock()
	})
	return g
}

func currentGate() *testGate {
	gateMu.Lock()
	defer gateMu.Unlock()
	return gate
}

// enter blocks until the gate admits the solve and records stats.
func (g *testGate) enter(nodes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.open && g.free == 0 {
		g.blocked++
		g.cond.Broadcast()
		g.cond.Wait()
		g.blocked--
	}
	if !g.open {
		g.free--
	}
	g.solves++
	g.order = append(g.order, nodes)
	g.concurrent++
	if g.concurrent > g.maxConcurrent {
		g.maxConcurrent = g.concurrent
	}
}

func (g *testGate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.concurrent--
}

// Open releases every blocked solver and admits all future ones.
func (g *testGate) Open() {
	g.mu.Lock()
	g.open = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// WaitBlocked blocks until exactly n solvers are parked at the gate.
func (g *testGate) WaitBlocked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.blocked != n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d solvers blocked, want %d", g.blocked, n)
		}
		g.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		g.mu.Lock()
	}
}

func (g *testGate) Stats() (solves, maxConcurrent int, order []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.solves, g.maxConcurrent, append([]int(nil), g.order...)
}

// gatedAnneal delegates to the deterministic annealing solver after
// passing the test gate. The struct is empty on purpose: its %#v is
// stable across runs, so checkpoints written under it resume.
type gatedAnneal struct{}

func (gatedAnneal) Name() string { return "anneal" }

func (gatedAnneal) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	if tg := currentGate(); tg != nil {
		tg.enter(g.N())
		defer tg.leave()
	}
	return solver.AnnealSolver{}.SolveSub(g, r)
}

// gatedResolve routes every request to the gated solver.
func gatedResolve(SolveRequest) (Solvers, error) {
	return Solvers{Sub: gatedAnneal{}, Merge: gatedAnneal{}}, nil
}

// ringReq builds a small ring-graph request (n <= MaxQubits solves
// directly: exactly one SolveSub call per run).
func ringReq(n int, seed uint64) SolveRequest {
	spec := GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, EdgeSpec{I: i, J: (i + 1) % n, W: 1})
	}
	return SolveRequest{Graph: spec, MaxQubits: 16, Solver: "anneal", Merge: "anneal", Seed: seed}
}

// waitDone waits on the job's terminal channel.
func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ch, err := s.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timeout waiting for job %s", id)
	}
	st, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdmissionControlUnderContention floods a 2-slot server with
// blocked jobs: at most GlobalParallelism solver calls run at once,
// the bounded queue rejects overflow with ErrQueueFull, and every
// admitted job completes once the gate opens.
func TestAdmissionControlUnderContention(t *testing.T) {
	g := setGate(t, 0, false)
	s, err := New(Config{
		GlobalParallelism: 2,
		MaxJobParallelism: 1,
		QueueLimit:        4,
		Resolve:           gatedResolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Two jobs occupy both slots (their solvers park at the gate)…
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := s.Submit(ringReq(8, uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	g.WaitBlocked(t, 2)

	// …four more fill the wait queue…
	for i := 0; i < 4; i++ {
		st, err := s.Submit(ringReq(8, uint64(200+i)))
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobQueued {
			t.Fatalf("job %d state %s, want queued", i, st.State)
		}
		ids = append(ids, st.ID)
	}

	// …and concurrent overflow submissions all bounce off the bound.
	var wg sync.WaitGroup
	rejected := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, rejected[i] = s.Submit(ringReq(8, uint64(300+i)))
		}(i)
	}
	wg.Wait()
	for i, err := range rejected {
		if err != ErrQueueFull {
			t.Fatalf("overflow submission %d: got %v, want ErrQueueFull", i, err)
		}
	}

	g.Open()
	for _, id := range ids {
		st := waitDone(t, s, id)
		if st.State != JobDone || st.Result == nil {
			t.Fatalf("job %s finished as %s (err %q)", id, st.State, st.Error)
		}
		if len(st.Result.Spins) != 8 {
			t.Fatalf("job %s has %d spins, want 8", id, len(st.Result.Spins))
		}
	}
	solves, maxConc, _ := g.Stats()
	if solves != 6 {
		t.Fatalf("%d solver calls for 6 jobs, want 6", solves)
	}
	if maxConc > 2 {
		t.Fatalf("observed %d concurrent solves, global cap is 2", maxConc)
	}
}

// TestPriorityLaneOrdering verifies a high-priority job overtakes
// earlier-queued normal jobs on a single-slot server. The jobs use
// distinct graph sizes so the solver-entry order is observable.
func TestPriorityLaneOrdering(t *testing.T) {
	g := setGate(t, 1, false) // first job passes, then the gate holds
	s, err := New(Config{
		GlobalParallelism: 1,
		MaxJobParallelism: 1,
		QueueLimit:        8,
		Resolve:           gatedResolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The first job consumes the gate's single free pass and
	// completes; the second parks at the now-exhausted gate and holds
	// the lone slot while the contenders queue behind it.
	first, err := s.Submit(ringReq(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, first.ID)

	blocker, err := s.Submit(ringReq(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	g.WaitBlocked(t, 1)

	n1, err := s.Submit(ringReq(14, 3))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := s.Submit(ringReq(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	hreq := ringReq(12, 5)
	hreq.Priority = PriorityHigh
	h, err := s.Submit(hreq)
	if err != nil {
		t.Fatal(err)
	}

	g.Open()
	for _, id := range []string{blocker.ID, n1.ID, n2.ID, h.ID} {
		waitDone(t, s, id)
	}
	_, _, order := g.Stats()
	want := []int{10, 8, 12, 14, 16} // high (12) before the earlier normals (14, 16)
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("solver entry order %v, want %v", order, want)
	}
}

// TestDuplicateCoalescing submits the same request from 8 goroutines:
// one solve runs, every submission lands on the same job, and a
// post-completion resubmission answers from the result cache.
func TestDuplicateCoalescing(t *testing.T) {
	g := setGate(t, 0, false)
	s, err := New(Config{
		GlobalParallelism: 2,
		MaxJobParallelism: 1,
		QueueLimit:        8,
		Resolve:           gatedResolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req := ringReq(10, 42)
	statuses := make([]JobStatus, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], errs[i] = s.Submit(req)
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i := range statuses {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if statuses[i].ID != statuses[0].ID {
			t.Fatalf("submission %d got job %s, want %s", i, statuses[i].ID, statuses[0].ID)
		}
		if statuses[i].Coalesced {
			coalesced++
		}
	}
	if coalesced != 7 {
		t.Fatalf("%d submissions coalesced, want 7 of 8", coalesced)
	}

	g.Open()
	done := waitDone(t, s, statuses[0].ID)
	if done.State != JobDone {
		t.Fatalf("job finished as %s (err %q)", done.State, done.Error)
	}
	solves, _, _ := g.Stats()
	if solves != 1 {
		t.Fatalf("%d solver calls for 8 duplicate submissions, want 1", solves)
	}

	again, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != JobDone || again.Result == nil {
		t.Fatalf("resubmission not served from cache: %+v", again)
	}
	if again.Result.Spins != done.Result.Spins || again.Result.Value != done.Result.Value {
		t.Fatalf("cached result differs: %+v vs %+v", again.Result, done.Result)
	}
	if solves, _, _ := g.Stats(); solves != 1 {
		t.Fatalf("cache hit re-solved: %d solver calls", solves)
	}
}

// TestParallelismInvariantKeys confirms submissions differing only in
// priority/parallelism coalesce (the runtime is parallelism-invariant)
// while result-determining fields split keys.
func TestParallelismInvariantKeys(t *testing.T) {
	a := ringReq(10, 7)
	b := ringReq(10, 7)
	b.Priority = PriorityHigh
	b.Parallelism = 3
	c := ringReq(10, 8) // different seed

	an, err := a.normalize()
	if err != nil {
		t.Fatal(err)
	}
	bn, err := b.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cn, err := c.normalize()
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := an.Graph.Build()
	gb, _ := bn.Graph.Build()
	gc, _ := cn.Graph.Build()
	fp := func(g *graph.Graph) string { return rt.GraphFingerprint(g) }
	if an.key(fp(ga)) != bn.key(fp(gb)) {
		t.Fatal("priority/parallelism changed the job key")
	}
	if an.key(fp(ga)) == cn.key(fp(gc)) {
		t.Fatal("seed change kept the job key")
	}
}

// TestJobKeysPinned pins the job ids of one graph and one problem
// request. Persisted jobs.json files and fleet routing key on these ids,
// so a refactor of how jobs run must not move them.
func TestJobKeysPinned(t *testing.T) {
	graphReq := SolveRequest{
		Graph: GraphSpec{Nodes: 5, Edges: []EdgeSpec{
			{0, 1, 1}, {1, 2, 2.5}, {2, 3, 1}, {3, 4, -0.5}, {4, 0, 1}, {1, 3, 1},
		}},
		MaxQubits: 4, Solver: "qaoa", Merge: "gw", Layers: 2, Seed: 9,
	}
	problemReq := SolveRequest{
		Problem: &ProblemSpec{Kind: ising.KindIsing, Vars: 3,
			Couplings: []CouplingSpec{{0, 1, 1}, {1, 2, -0.5}},
			Fields:    []float64{0.25, 0, -1}, Offset: 2},
		Solver: "exact", Merge: "exact", Seed: 3,
	}
	for _, tc := range []struct {
		name string
		req  SolveRequest
		want string
	}{
		{"graph", graphReq, "7647e836a9f74d5d"},
		{"problem", problemReq, "5762045a3ba08b4f"},
	} {
		got, err := tc.req.JobKey()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s request: job id %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSubmitValidation covers the rejection paths.
func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Submit(SolveRequest{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	bad := ringReq(6, 1)
	bad.Solver = "bogus"
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("unknown solver accepted")
	}
	badPrio := ringReq(6, 1)
	badPrio.Priority = "urgent"
	if _, err := s.Submit(badPrio); err == nil {
		t.Fatal("unknown priority accepted")
	}
	badEdge := ringReq(6, 1)
	badEdge.Graph.Edges[0].J = 99
	if _, err := s.Submit(badEdge); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := s.Job("nope"); err != ErrNotFound {
		t.Fatalf("unknown job lookup: %v, want ErrNotFound", err)
	}
}

// TestWideJobReservationNoStarvation: freed slots must accumulate for
// a wide head job instead of backfilling narrower jobs that arrived
// later — a stream of 1-slot jobs can never starve a 2-slot
// high-priority job.
func TestWideJobReservationNoStarvation(t *testing.T) {
	g := setGate(t, 0, false)
	s, err := New(Config{
		GlobalParallelism: 2,
		MaxJobParallelism: 2,
		QueueLimit:        8,
		Resolve:           gatedResolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Two 1-slot jobs hold both slots, their solves parked at the gate.
	one := func(n int, seed uint64) SolveRequest {
		req := ringReq(n, seed)
		req.Parallelism = 1
		return req
	}
	a, err := s.Submit(one(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(one(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	g.WaitBlocked(t, 2)

	wide := ringReq(12, 3)
	wide.Priority = PriorityHigh
	wide.Parallelism = 2
	w, err := s.Submit(wide)
	if err != nil {
		t.Fatal(err)
	}
	// Narrow normal jobs arrive behind the wide one; without the
	// reservation they would leapfrog it every time one slot frees.
	n1, err := s.Submit(one(14, 4))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := s.Submit(one(16, 5))
	if err != nil {
		t.Fatal(err)
	}

	g.Open()
	for _, id := range []string{a.ID, b.ID, w.ID, n1.ID, n2.ID} {
		if st := waitDone(t, s, id); st.State != JobDone {
			t.Fatalf("job %s finished as %s (err %q)", id, st.State, st.Error)
		}
	}
	// Entry order: the two runners first (8 and 9, either order), then
	// the wide high-priority job (12) before either narrow normal job.
	_, _, order := g.Stats()
	if len(order) != 5 {
		t.Fatalf("expected 5 solves, got %v", order)
	}
	if order[2] != 12 {
		t.Fatalf("wide high-priority job did not run as soon as both slots freed: %v", order)
	}
}
