package rqaoa

import (
	"math"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
)

func fastQAOA() qaoa.Options {
	return qaoa.Options{Layers: 2, MaxIters: 40}
}

func TestRQAOASmallGraphIsExact(t *testing.T) {
	// Below the cutoff RQAOA reduces to brute force.
	g := graph.Complete(5)
	res, err := Solve(g, Options{Cutoff: 8, QAOA: fastQAOA()}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 6 {
		t.Fatalf("K5 RQAOA cut %v want 6", res.Cut.Value)
	}
	if res.Eliminations != 0 {
		t.Fatalf("small graph should not eliminate, got %d", res.Eliminations)
	}
}

func TestRQAOAEliminatesAndStaysValid(t *testing.T) {
	r := rng.New(2)
	g := graph.ErdosRenyi(12, 0.4, graph.UniformWeights, r)
	res, err := Solve(g, Options{Cutoff: 6, QAOA: fastQAOA()}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eliminations != 12-6 {
		t.Fatalf("eliminations %d want 6", res.Eliminations)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestRQAOANearOptimal(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 3; trial++ {
		g := graph.ErdosRenyi(11, 0.4, graph.Unweighted, r)
		if g.M() < 3 {
			continue
		}
		opt, err := maxcut.BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, Options{Cutoff: 6, QAOA: fastQAOA()}, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut.Value < 0.85*opt.Value {
			t.Fatalf("trial %d: RQAOA %v < 85%% of optimum %v", trial, res.Cut.Value, opt.Value)
		}
	}
}

func TestRQAOABipartiteExact(t *testing.T) {
	// Bipartite correlations are strong; RQAOA should recover the full
	// cut K_{4,4} = 16.
	g := graph.Bipartite(4, 4)
	res, err := Solve(g, Options{Cutoff: 4, QAOA: qaoa.Options{Layers: 3, MaxIters: 80}}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 16 {
		t.Fatalf("K44 RQAOA cut %v want 16", res.Cut.Value)
	}
}

// TestRQAOAStopsOnCertifiedStep: when the first QAOA step certifies its
// cut, that cut is a maximum cut of the whole graph, so RQAOA returns it
// without eliminating a variable or brute-forcing a residual.
func TestRQAOAStopsOnCertifiedStep(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := graph.ErdosRenyi(12, 0.5, graph.Unweighted, rng.New(seed))
		step, err := qaoa.Solve(g, fastQAOA(), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !step.Optimal {
			t.Fatalf("seed %d: step 0 not certified; pick another graph", seed)
		}
		res, err := Solve(g, Options{Cutoff: 6, QAOA: fastQAOA()}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := maxcut.BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Eliminations != 0 || res.Cut.Value != opt.Value {
			t.Fatalf("seed %d: %d eliminations, cut %v, want 0 and the optimum %v",
				seed, res.Eliminations, res.Cut.Value, opt.Value)
		}
		if err := res.Cut.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRQAOAEmptyAndEdgeless(t *testing.T) {
	res, err := Solve(graph.New(0), Options{}, rng.New(1))
	if err != nil || res.Cut.Value != 0 {
		t.Fatalf("empty: %+v err=%v", res, err)
	}
	res, err = Solve(graph.New(12), Options{Cutoff: 4, QAOA: fastQAOA()}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 0 {
		t.Fatalf("edgeless: %v", res.Cut.Value)
	}
}

func TestRQAOARejectsHugeCutoff(t *testing.T) {
	if _, err := Solve(graph.Complete(3), Options{Cutoff: maxcut.MaxExactNodes + 1}, rng.New(1)); err == nil {
		t.Fatal("oversized cutoff accepted")
	}
}

// TestRQAOAEliminationPastTheRange: eliminating node 2 into node 3
// merges edges 1-2 and 1-3 of 7e291 into one of 1.4e292. Listed apart
// beside float64's largest value their absolute values sum within the
// range; merged they do not, so Solve reports an error rather than
// building (or panicking on) a graph whose cut values are not finite.
func TestRQAOAEliminationPastTheRange(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, math.MaxFloat64)
	g.MustAddEdge(1, 2, 7e291)
	g.MustAddEdge(1, 3, 7e291)
	if _, _, err := eliminate(g, []int{0, 1, 2, 3}, 2, 3, 1); err == nil || !strings.Contains(err.Error(), "must be finite") {
		t.Fatalf("eliminate: error %v", err)
	}
	if _, _, err := eliminate(g, []int{0, 1, 2, 3}, 2, 3, -1); err != nil {
		t.Fatalf("eliminate with the cancelling sign: %v", err)
	}
}
