package qaoa2

import (
	"math"
	"slices"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/ising"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// coverProblem is a vertex-cover instance sized to exceed a small
// qubit budget, forcing the reduction path when MaxQubits is low.
func coverProblem(t *testing.T, n int) *ising.Problem {
	t.Helper()
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, 1)
		if v%3 == 0 {
			g.MustAddEdge(v, (v+n/2)%n, 1)
		}
	}
	p, err := ising.MinVertexCover(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fieldFreeProblem is a raw field-free Hamiltonian over n spins with
// real couplings: its reduction graph leaves the ancilla isolated.
func fieldFreeProblem(t *testing.T, n int, seed uint64) *ising.Problem {
	t.Helper()
	r := rng.New(seed)
	h := ising.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.4 {
				if err := h.AddCoupling(i, j, r.Float64()*2-1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return ising.FromHamiltonian(h)
}

// misProblem is the weighted maximum independent set on ER(10, 0.35)
// with vertex weights 1–3.
func misProblem(t *testing.T, seed uint64) *ising.Problem {
	t.Helper()
	r := rng.New(seed)
	g := graph.ErdosRenyi(10, 0.35, graph.Unweighted, r)
	weights := make([]float64, g.N())
	for i := range weights {
		weights[i] = float64(1 + r.Intn(3))
	}
	p, err := ising.WeightedMIS(g, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// solveReduced is the reference SolveIsing is pinned to: Solve on the
// reduction graph under the same options, decoded.
func solveReduced(t *testing.T, h *ising.Hamiltonian, opts Options) []int8 {
	t.Helper()
	g, err := h.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	spins, err := h.DecodeMaxCutSpins(res.Cut.Spins)
	if err != nil {
		t.Fatal(err)
	}
	return spins
}

// TestSolveIsingIsTheReduction pins the one Ising route. For
// field-carrying and field-free Hamiltonians, device-sized and over
// the qubit budget, under each registry solver, SolveIsing returns the
// decoded Solve of the reduction graph under the same options, carries
// that MaxCut result, and reports Energy as E(Spins) bit for bit.
// Device-sized rows also hold exact to the ground state, and qaoa to a
// perfect split of the number-partitioning instance.
func TestSolveIsingIsTheReduction(t *testing.T) {
	partition, err := ising.NumberPartition([]float64{3, 1, 1, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	problems := []struct {
		name      string
		p         *ising.Problem
		maxQubits int
		device    bool // the reduction graph fits MaxQubits
	}{
		{"fields-device", coverProblem(t, 8), 10, true},
		{"fields-over-budget", coverProblem(t, 20), 8, false},
		{"field-free-device", partition, 10, true},
		{"field-free-over-budget", fieldFreeProblem(t, 14, 9), 8, false},
	}
	for _, pc := range problems {
		for _, name := range []string{"qaoa", "exact", "anneal", "random", "best", "gw"} {
			t.Run(pc.name+"/"+name, func(t *testing.T) {
				s, err := solver.Build(solver.Spec{Name: name})
				if err != nil {
					t.Fatal(err)
				}
				h := pc.p.H
				opts := Options{MaxQubits: pc.maxQubits, Solver: s, Seed: 7}
				res, err := SolveIsing(h, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := solveReduced(t, h, opts); !slices.Equal(res.Spins, want) {
					t.Fatalf("spins %v, reduction %v", res.Spins, want)
				}
				if res.MaxCut == nil {
					t.Fatal("no MaxCut result")
				}
				if pc.device != (res.MaxCut.SubGraphs == 1) {
					t.Fatalf("%d sub-graphs on a device-sized = %v instance", res.MaxCut.SubGraphs, pc.device)
				}
				if math.Float64bits(res.Energy) != math.Float64bits(h.Energy(res.Spins)) {
					t.Fatalf("energy %v, E(spins) %v", res.Energy, h.Energy(res.Spins))
				}
				if name == "exact" && pc.device {
					_, ground, err := h.GroundState()
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(res.Energy-ground) > 1e-9 {
						t.Fatalf("exact energy %g, ground %g", res.Energy, ground)
					}
				}
				if name == "qaoa" && pc.p == partition {
					a, err := partition.Decode(res.Spins)
					if err != nil {
						t.Fatal(err)
					}
					// 3+1+1 = 2+2+1: a perfect split exists.
					if a.Objective != 0 {
						t.Fatalf("imbalance %g, want 0", a.Objective)
					}
				}
			})
		}
	}

	// best races qaoa and gw on every leaf of a weighted-MIS instance:
	// gw is a real attempt, not a member dropped for lack of Ising
	// support.
	t.Run("weighted-mis/best", func(t *testing.T) {
		s, err := solver.Build(solver.Spec{Name: "best"})
		if err != nil {
			t.Fatal(err)
		}
		p := misProblem(t, 1)
		opts := Options{MaxQubits: 12, Solver: s, Seed: 1}
		res, err := SolveIsing(p.H, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := solveReduced(t, p.H, opts); !slices.Equal(res.Spins, want) {
			t.Fatalf("spins %v, reduction %v", res.Spins, want)
		}
		ranGW := false
		for _, rep := range res.MaxCut.SubReports {
			for _, a := range rep.Attempts {
				ranGW = ranGW || a.Solver == "gw" && a.Err == ""
			}
		}
		if !ranGW {
			t.Fatalf("gw never ran: %+v", res.MaxCut.SubReports)
		}
	})
}

func TestSolveIsingReductionPathForMaxCutOnlySolver(t *testing.T) {
	p := coverProblem(t, 8)
	_, ground, err := p.H.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	// gw only speaks MaxCut: it solves the Hamiltonian's reduction.
	res, err := SolveIsing(p.H, Options{MaxQubits: 10, Solver: solver.GWSolver{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCut == nil || res.MaxCut.SubGraphs < 1 {
		t.Fatal("reduction path lost the underlying MaxCut result")
	}
	if len(res.Spins) != p.H.N() {
		t.Fatalf("decoded %d spins for %d variables", len(res.Spins), p.H.N())
	}
	if math.Abs(res.Energy-p.H.Energy(res.Spins)) > 1e-12 {
		t.Fatal("reduction energy not recomputed from the Hamiltonian")
	}
	if res.Energy < ground-1e-9 {
		t.Fatalf("energy %g below ground %g", res.Energy, ground)
	}
	a, err := p.Decode(res.Spins)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Logf("note: reduction decode infeasible cover %v (penalty too mild for heuristic)", a.Selected)
	}
}

func TestSolveIsingReductionPathOverBudget(t *testing.T) {
	// 20 variables, budget 8: the reduced 21-node MaxCut instance must
	// go through partitioning + merge, with attribution in SubReports.
	p := coverProblem(t, 20)
	res, err := SolveIsing(p.H, Options{
		MaxQubits: 8,
		Solver:    solver.AnnealSolver{},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCut.SubGraphs < 2 {
		t.Fatalf("expected a real decomposition, got %d sub-graphs", res.MaxCut.SubGraphs)
	}
	for _, r := range res.MaxCut.SubReports {
		if r.Solver != "anneal" {
			t.Fatalf("sub-report attributes %q, want anneal", r.Solver)
		}
	}
	if math.Abs(res.Energy-p.H.Energy(res.Spins)) > 1e-12 {
		t.Fatal("energy inconsistent with decoded spins")
	}
	// A sane heuristic cover of this ring-plus-chords graph stays below
	// the trivial all-vertices cover.
	a, err := p.Decode(res.Spins)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective >= float64(p.H.N()) {
		t.Fatalf("cover of size %g is the trivial one", a.Objective)
	}
}

func TestSolveProblemDecodes(t *testing.T) {
	p := coverProblem(t, 8)
	res, a, err := SolveProblem(p, Options{MaxQubits: 10, Solver: solver.ExactSolver{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatalf("exact cover infeasible: %v", a.Selected)
	}
	if a.Energy != res.Energy {
		t.Fatal("assignment energy differs from solve energy")
	}
	if len(a.Selected) == 0 || a.Objective != float64(len(a.Selected)) {
		t.Fatalf("bad cover decode: %+v", a)
	}
	if _, _, err := SolveProblem(nil, Options{}); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestSolveIsingEmptyAndNil(t *testing.T) {
	if _, err := SolveIsing(nil, Options{}); err == nil {
		t.Fatal("nil Hamiltonian accepted")
	}
	h := ising.New(0)
	h.AddOffset(2.5)
	res, err := SolveIsing(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy != 2.5 || len(res.Spins) != 0 {
		t.Fatalf("empty Hamiltonian: %+v", res)
	}
}
