package qaoa2_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"qaoa2"
)

// The facade tests pin the public API surface: everything a downstream
// user needs must be reachable through the root package alone.

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
	if c := qaoa2.OneExchange(g, r); c.Value != 3 {
		t.Fatalf("one-exchange %v (two disjoint edges are trivially optimal)", c.Value)
	}
	if c := qaoa2.SimulatedAnnealing(g, qaoa2.AnnealOptions{Sweeps: 50}, r); c.Value != 3 {
		t.Fatalf("annealing %v", c.Value)
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
	if gres.Best.Value > gres.SDPValue+1e-6 {
		t.Fatalf("GW best %v above SDP bound %v", gres.Best.Value, gres.SDPValue)
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

func TestFacadeRQAOA(t *testing.T) {
	g := qaoa2.ErdosRenyi(10, 0.4, qaoa2.Unweighted, qaoa2.NewRand(6))
	res, err := qaoa2.SolveRQAOA(g, qaoa2.RQAOAOptions{
		Cutoff: 6,
		QAOA:   qaoa2.QAOAOptions{Layers: 2, MaxIters: 25},
	}, qaoa2.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
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

func TestFacadeNoiseAndWarmStart(t *testing.T) {
	g := qaoa2.ErdosRenyi(8, 0.4, qaoa2.Unweighted, qaoa2.NewRand(8))
	v, err := qaoa2.NoisyExpectation(g, []float64{0.4, 0.6}, []float64{0.5, 0.2},
		qaoa2.NoiseModel{OneQubit: 0.05, TwoQubit: 0.05}, 4, qaoa2.SynthPreferences{}, qaoa2.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > g.TotalWeight() {
		t.Fatalf("noisy expectation %v outside (0, total weight]", v)
	}
	data, err := qaoa2.BuildParamDataset([]*qaoa2.Graph{g}, qaoa2.QAOAOptions{Layers: 2, MaxIters: 25}, 10)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := qaoa2.TrainParamPredictor(data, qaoa2.ParamConfig{Layers: 2, Epochs: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gs, bs, err := pred.Predict(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || len(bs) != 2 {
		t.Fatalf("prediction shape %d/%d", len(gs), len(bs))
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

// TestFacadeFaultTolerance pins the fault-tolerant dispatch surface:
// retry policies with deterministic jitter, error classification, the
// circuit breaker lifecycle, the stream-interruption sentinel, and the
// seeded fault injector.
func TestFacadeFaultTolerance(t *testing.T) {
	pol := qaoa2.DefaultRetryPolicy(7)
	if pol.MaxAttempts < 2 {
		t.Fatalf("default policy retries nothing: %+v", pol)
	}
	if a, b := pol.Delay(2), qaoa2.DefaultRetryPolicy(7).Delay(2); a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}

	se := &qaoa2.StatusError{Code: 503, Msg: "draining"}
	if qaoa2.ClassifyError(se) != qaoa2.Retryable {
		t.Fatal("503 not retryable")
	}
	if qaoa2.ClassifyError(&qaoa2.StatusError{Code: 400, Msg: "bad"}) != qaoa2.Terminal {
		t.Fatal("400 not terminal")
	}

	br := &qaoa2.Breaker{FailureThreshold: 2}
	if br.State() != qaoa2.BreakerClosed {
		t.Fatalf("new breaker %v", br.State())
	}
	br.Failure()
	br.Failure()
	if br.State() != qaoa2.BreakerOpen {
		t.Fatalf("breaker %v after threshold failures", br.State())
	}
	if err := br.Allow(); !errors.Is(err, qaoa2.ErrBreakerOpen) {
		t.Fatalf("open breaker allowed: %v", err)
	}

	if qaoa2.ErrStreamInterrupted == nil || qaoa2.ErrRetryExhausted == nil {
		t.Fatal("sentinels missing")
	}

	in := qaoa2.NewFaultInjector(7).Site("s", qaoa2.FaultSite{P: 1})
	if d := in.Decide("s"); d.Class == "" || d.Seq != 1 {
		t.Fatalf("P=1 site passed: %+v", d)
	}
}

// TestFacadeFleet pins the multi-node fleet surface: a coordinator
// over two in-process workers built entirely through the root
// package, routing a solve and answering the roster.
func TestFacadeFleet(t *testing.T) {
	var specs []qaoa2.FleetWorkerSpec
	for i := 0; i < 2; i++ {
		srv, err := qaoa2.NewServeServer(qaoa2.ServeConfig{GlobalParallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		specs = append(specs, qaoa2.FleetWorkerSpec{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	c, err := qaoa2.NewFleetCoordinator(qaoa2.FleetConfig{Workers: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	g := qaoa2.ErdosRenyi(14, 0.3, qaoa2.Unweighted, qaoa2.NewRand(3))
	req := qaoa2.SolveRequest{Graph: qaoa2.GraphSpecOf(g), MaxQubits: 8,
		Solver: "anneal", Merge: "anneal", Seed: 3}
	st, err := c.Solve(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != qaoa2.JobDone || st.Result == nil {
		t.Fatalf("fleet solve: %+v", st)
	}
	ws := c.Workers()
	if len(ws) != 2 || ws[0].State != qaoa2.FleetWorkerHealthy {
		t.Fatalf("roster: %+v", ws)
	}
	if c.Stats().Routed != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}
