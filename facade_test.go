package qaoa2_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"qaoa2"
	"qaoa2/internal/fleet"
	"qaoa2/internal/retry"
	"qaoa2/internal/sdp"
	"qaoa2/internal/serve"
)

// The facade tests pin the public API surface: the workflow a
// downstream user runs must be reachable through the root package
// alone. The tests that compose the facade with a package it does not
// re-export (fleet, retry) pin that the
// facade's types plug into it unchanged.

func TestFacadeGraphAndBaselines(t *testing.T) {
	g := qaoa2.NewGraph(4)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(2, 3, 2)
	exact, err := qaoa2.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Value != 3 {
		t.Fatalf("exact %v", exact.Value)
	}
	r := qaoa2.NewRand(1)
	if c := qaoa2.RandomCut(g, 4, r); c.Value < 0 {
		t.Fatal("random cut negative")
	}
}

// TestFacadeAddEdgeRefusesNaN: a NaN weight would make every cut value
// NaN; AddEdge refuses it and leaves the graph unchanged.
func TestFacadeAddEdgeRefusesNaN(t *testing.T) {
	g := qaoa2.NewGraph(4)
	if err := g.AddEdge(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if g.M() != 0 {
		t.Fatalf("refused edge left %d edges", g.M())
	}
}

func TestFacadeQAOAAndGW(t *testing.T) {
	g := qaoa2.ErdosRenyi(10, 0.4, qaoa2.UniformWeights, qaoa2.NewRand(2))
	qres, err := qaoa2.SolveQAOA(g, qaoa2.QAOAOptions{Layers: 2, MaxIters: 30}, qaoa2.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := qres.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	gres, err := qaoa2.SolveGW(g, qaoa2.GWOptions{}, qaoa2.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sdp.DualBound(g, gres.Relaxation)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Best.Value > bound {
		t.Fatalf("GW best %v above the certified bound %v", gres.Best.Value, bound)
	}
}

func TestFacadeQAOA2EndToEnd(t *testing.T) {
	g := qaoa2.ErdosRenyi(40, 0.15, qaoa2.Unweighted, qaoa2.NewRand(5))
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits: 8,
		Solver: qaoa2.BestOfSolver{Solvers: []qaoa2.SubSolver{
			qaoa2.QAOASolver{Opts: qaoa2.QAOAOptions{Layers: 2, MaxIters: 25}},
			qaoa2.GWSolver{},
		}},
		MergeSolver: qaoa2.ExactSolver{},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs < 2 {
		t.Fatalf("expected decomposition, got %d sub-graphs", res.SubGraphs)
	}
}

// TestFacadeRQAOA builds RQAOA by registry name and runs it as the
// leaf solver of a Solve whose graph fits the device in one piece; at
// the default cutoff (8) the 10-node leaf eliminates before it brute-
// forces the residual.
func TestFacadeRQAOA(t *testing.T) {
	g := qaoa2.ErdosRenyi(10, 0.4, qaoa2.Unweighted, qaoa2.NewRand(6))
	s, err := qaoa2.BuildSolver(qaoa2.SolverSpec{Name: "rqaoa", Layers: 2, MaxIters: 25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := qaoa2.Solve(g, qaoa2.Options{MaxQubits: 10, Solver: s, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(res.SubReports) != 1 || res.SubReports[0].Solver != "rqaoa" {
		t.Fatalf("sub-reports %+v, want one rqaoa solve", res.SubReports)
	}
}

// TestFacadeFig2Workflow runs the paper's Fig. 2 workflow through
// the facade: Solve with a density router on a two-worker pool.
func TestFacadeFig2Workflow(t *testing.T) {
	g := qaoa2.ErdosRenyi(30, 0.2, qaoa2.Unweighted, qaoa2.NewRand(7))
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:   8,
		Solver:      qaoa2.DensityPolicy(0.7, qaoa2.ExactSolver{}, qaoa2.GWSolver{}),
		MergeSolver: qaoa2.GWSolver{},
		Parallelism: 2,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.SubReports {
		if r.Solver != "exact" && r.Solver != "gw" {
			t.Fatalf("sub-graph routed to %q", r.Solver)
		}
	}
}

func TestFacadeDensityPolicy(t *testing.T) {
	p := qaoa2.DensityPolicy(0.5, qaoa2.ExactSolver{}, qaoa2.GWSolver{})
	sparse := qaoa2.NewGraph(5)
	sparse.MustAddEdge(0, 1, 1)
	res, err := qaoa2.Solve(sparse, qaoa2.Options{MaxQubits: 8, Solver: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubReports[0].Solver != "exact" {
		t.Fatalf("sparse graph routed to %q, not the quantum solver", res.SubReports[0].Solver)
	}
}

func TestFacadeScheduler(t *testing.T) {
	m, err := qaoa2.SimulateCluster(qaoa2.Resources{Nodes: 2, QPUs: 1}, []qaoa2.Job{{
		Name:          "hybrid",
		Heterogeneous: true,
		Steps: []qaoa2.Step{
			{Name: "prep", Req: qaoa2.Resources{Nodes: 2}, Duration: 4},
			{Name: "qaoa", Req: qaoa2.Resources{QPUs: 1}, Duration: 1},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Makespan != 5 {
		t.Fatalf("makespan %v", m.Makespan)
	}
}

// TestFacadeFaultTolerance pins fault-tolerant dispatch through the
// facade: a RemoteSolver whose daemon is unreachable retries under its
// policy, trips the shared circuit breaker, and degrades every leaf to
// its local fallback, so Solve still returns a valid cut and the
// attribution shows the degradation.
func TestFacadeFaultTolerance(t *testing.T) {
	br := &retry.Breaker{FailureThreshold: 2, Cooldown: time.Minute}
	dead := qaoa2.RemoteSolver{
		// Nothing listens here: every dial is refused immediately.
		Client: &qaoa2.ServeClient{Base: "http://127.0.0.1:1"},
		Retry: retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond,
			MaxDelay: 2 * time.Millisecond, Seed: 7, Breaker: br},
		Fallback: qaoa2.AnnealSolver{},
	}
	g := qaoa2.ErdosRenyi(24, 0.2, qaoa2.Unweighted, qaoa2.NewRand(3))
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits: 8, Solver: dead, MergeSolver: qaoa2.AnnealSolver{}, Seed: 3,
	})
	if err != nil {
		t.Fatalf("degraded solve failed outright: %v", err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs < 2 {
		t.Fatalf("expected decomposition, got %d sub-graphs", res.SubGraphs)
	}
	for i, sr := range res.SubReports {
		if sr.Solver != "fallback:anneal" {
			t.Fatalf("leaf %d attributed to %q, want fallback:anneal", i, sr.Solver)
		}
	}
	if br.State() != retry.BreakerOpen {
		t.Fatalf("breaker %v after a dead-daemon run, want open", br.State())
	}
}

// TestFacadeFleet puts two facade solve servers behind a fleet
// coordinator and solves through the facade's client pointed at the
// coordinator's front door, which speaks the single-daemon wire API.
func TestFacadeFleet(t *testing.T) {
	var specs []fleet.WorkerSpec
	for i := 0; i < 2; i++ {
		srv, err := qaoa2.NewServeServer(qaoa2.ServeConfig{GlobalParallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		specs = append(specs, fleet.WorkerSpec{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	c, err := fleet.New(fleet.Config{Workers: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	g := qaoa2.ErdosRenyi(14, 0.3, qaoa2.Unweighted, qaoa2.NewRand(3))
	req := qaoa2.SolveRequest{Graph: qaoa2.GraphSpecOf(g), MaxQubits: 8,
		Solver: "anneal", Merge: "anneal", Seed: 3}
	client := &qaoa2.ServeClient{Base: front.URL}
	st, err := client.Solve(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("fleet solve: %+v", st)
	}
	ws := c.Workers()
	if len(ws) != 2 || ws[0].State != fleet.WorkerHealthy {
		t.Fatalf("roster: %+v", ws)
	}
	if c.Stats().Routed != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}
