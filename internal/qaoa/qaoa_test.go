package qaoa

import (
	"math"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/synth"
)

// bitsOf unpacks basis index x into n bits, bit q = qubit q.
func bitsOf(x uint64, n int) []uint8 {
	bits := make([]uint8, n)
	for q := range bits {
		bits[q] = uint8(x >> uint(q) & 1)
	}
	return bits
}

func TestCutTableMatchesGraph(t *testing.T) {
	r := rng.New(1)
	g := graph.ErdosRenyi(6, 0.5, graph.UniformWeights, r)
	table := backend.CutTable(g, nil)
	for x := 0; x < 1<<6; x++ {
		bits := bitsOf(uint64(x), 6)
		want := g.CutValueBits(bits)
		if math.Abs(table[x]-want) > 1e-12 {
			t.Fatalf("table[%d]=%v want %v", x, table[x], want)
		}
	}
}

func TestCutTableWithLayout(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	layout := []int{2, 0, 1} // logical q lives on wire layout[q]
	table := backend.CutTable(g, layout)
	// Logical bits: node0 = bit2, node1 = bit0. x=0b001 → node1=1,
	// node0=0 → edge cut.
	if table[0b001] != 1 {
		t.Fatalf("layout table[1]=%v", table[0b001])
	}
	if table[0b101] != 0 {
		t.Fatalf("layout table[5]=%v (both nodes on same side)", table[0b101])
	}
}

func TestSolveSingleEdgeExact(t *testing.T) {
	// K2 MaxCut = 1; QAOA with p=2 and exact expectation must find it.
	g := graph.Complete(2)
	res, err := Solve(g, Options{Layers: 2, MaxIters: 120, Seed: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 1 {
		t.Fatalf("K2 QAOA cut %v", res.Cut.Value)
	}
	if res.Expectation < 0.8 {
		t.Fatalf("K2 expectation %v too low", res.Expectation)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSolveTriangle(t *testing.T) {
	g := graph.Complete(3)
	res, err := Solve(g, Options{Layers: 3, MaxIters: 150, Seed: 2}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 2 {
		t.Fatalf("triangle QAOA cut %v want 2", res.Cut.Value)
	}
}

func TestSolveBipartiteFindsOptimum(t *testing.T) {
	g := graph.Bipartite(3, 3)
	res, err := Solve(g, Options{Layers: 4, MaxIters: 200, Seed: 3}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value < 8 { // optimum 9; allow near-miss at modest depth
		t.Fatalf("K33 QAOA cut %v", res.Cut.Value)
	}
}

func TestExpectationNeverExceedsOptimum(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 3; trial++ {
		g := graph.ErdosRenyi(8, 0.5, graph.UniformWeights, r)
		if g.M() == 0 {
			continue
		}
		res, err := Solve(g, Options{Layers: 2, MaxIters: 60, Seed: uint64(trial)}, r)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := maxcut.BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Expectation > opt.Value+1e-9 {
			t.Fatalf("⟨H_C⟩=%v exceeds optimum %v", res.Expectation, opt.Value)
		}
		if res.Cut.Value > opt.Value+1e-9 {
			t.Fatalf("decoded cut %v exceeds optimum %v", res.Cut.Value, opt.Value)
		}
	}
}

func TestMoreLayersDoNotHurt(t *testing.T) {
	// F_p is non-decreasing in p at the optimum; with a bounded
	// optimizer allow small tolerance.
	g := graph.Cycle(6)
	r1, err := Solve(g, Options{Layers: 1, MaxIters: 60, Seed: 5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Solve(g, Options{Layers: 3, MaxIters: 150, Seed: 5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Expectation < r1.Expectation-0.15 {
		t.Fatalf("p=3 expectation %v much worse than p=1 %v", r3.Expectation, r1.Expectation)
	}
}

func TestShotBasedObjective(t *testing.T) {
	g := graph.Complete(3)
	res, err := Solve(g, Options{Layers: 2, MaxIters: 80, Shots: DefaultShots, Seed: 6}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 2 {
		t.Fatalf("shot-based QAOA on triangle: cut %v", res.Cut.Value)
	}
}

func TestSampledDecoding(t *testing.T) {
	g := graph.Complete(3)
	res, err := Solve(g, Options{
		Layers: 2, MaxIters: 80, DecodeShots: DefaultShots, Seed: 6,
	}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// 4096 shots on a 3-qubit optimized state: the modal outcome is an
	// optimal cut with overwhelming probability.
	if res.Cut.Value != 2 {
		t.Fatalf("sampled decoding on triangle: cut %v", res.Cut.Value)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSampledDecodingDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(20))
	a, err := Solve(g, Options{Layers: 2, MaxIters: 30, DecodeShots: 512, Seed: 3}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, Options{Layers: 2, MaxIters: 30, DecodeShots: 512, Seed: 3}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut.Value != b.Cut.Value {
		t.Fatalf("sampled decoding nondeterministic: %v vs %v", a.Cut.Value, b.Cut.Value)
	}
}

func TestSampledDecodingTopK(t *testing.T) {
	r := rng.New(21)
	g := graph.ErdosRenyi(9, 0.4, graph.UniformWeights, r)
	seed := uint64(4)
	r1, err := Solve(g, Options{Layers: 2, MaxIters: 30, DecodeShots: 1024, TopK: 1, Seed: seed}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Solve(g, Options{Layers: 2, MaxIters: 30, DecodeShots: 1024, TopK: 8, Seed: seed}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if r8.Cut.Value < r1.Cut.Value-1e-9 {
		t.Fatalf("top-8 sampled decoding %v worse than top-1 %v", r8.Cut.Value, r1.Cut.Value)
	}
}

func TestTopKDecodingAtLeastAsGood(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 3; trial++ {
		g := graph.ErdosRenyi(9, 0.4, graph.UniformWeights, r)
		if g.M() == 0 {
			continue
		}
		seed := uint64(trial + 10)
		r1, err := Solve(g, Options{Layers: 2, MaxIters: 50, TopK: 1, Seed: seed}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		r16, err := Solve(g, Options{Layers: 2, MaxIters: 50, TopK: 16, Seed: seed}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if r16.Cut.Value < r1.Cut.Value-1e-9 {
			t.Fatalf("top-16 decoding %v worse than top-1 %v", r16.Cut.Value, r1.Cut.Value)
		}
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	res, err := Solve(graph.New(0), Options{}, rng.New(1))
	if err != nil || res.Cut.Value != 0 {
		t.Fatalf("empty graph: %+v err=%v", res, err)
	}
	res, err = Solve(graph.New(4), Options{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 0 || len(res.Cut.Spins) != 4 {
		t.Fatalf("edgeless graph: %+v", res.Cut)
	}
}

func TestTooManyQubitsRejected(t *testing.T) {
	g := graph.New(qsim.MaxQubits + 1)
	g.MustAddEdge(0, 1, 1)
	if _, err := Solve(g, Options{}, rng.New(1)); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestSynthesisPreferencesFlowThrough(t *testing.T) {
	g := graph.Path(5)
	res, err := Solve(g, Options{
		Layers:    1,
		MaxIters:  30,
		Synthesis: synth.Preferences{Objective: synth.MinimizeDepth},
		Seed:      9,
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CandidatesConsidered < 2 {
		t.Fatalf("synthesis preferences ignored: %+v", res.Report)
	}
}

func TestLinearConnectivitySolveCorrect(t *testing.T) {
	// Routed ansatz must still land on the true optimum for an easy
	// instance, proving the layout bookkeeping is right end to end.
	g := graph.Bipartite(2, 2)
	res, err := Solve(g, Options{
		Layers:    3,
		MaxIters:  150,
		Synthesis: synth.Preferences{Connectivity: synth.Linear},
		Seed:      10,
	}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 4 {
		t.Fatalf("routed QAOA on K22: cut %v want 4", res.Cut.Value)
	}
}

func TestIterationsFor(t *testing.T) {
	if IterationsFor(3) != 30 {
		t.Fatalf("p=3 iters %d", IterationsFor(3))
	}
	if IterationsFor(8) != 100 {
		t.Fatalf("p=8 iters %d", IterationsFor(8))
	}
	if IterationsFor(1) != 30 || IterationsFor(20) != 100 {
		t.Fatal("clamping broken")
	}
	mid := IterationsFor(5)
	if mid <= 30 || mid >= 100 {
		t.Fatalf("p=5 iters %d not interior", mid)
	}
}

func TestInitialParametersRamp(t *testing.T) {
	gammas, betas := InitialParameters(4)
	for l := 1; l < 4; l++ {
		if gammas[l] <= gammas[l-1] {
			t.Fatalf("gammas not increasing: %v", gammas)
		}
		if betas[l] >= betas[l-1] {
			t.Fatalf("betas not decreasing: %v", betas)
		}
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	g := graph.ErdosRenyi(7, 0.5, graph.Unweighted, rng.New(11))
	a, err := Solve(g, Options{Layers: 2, MaxIters: 40, Seed: 42}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, Options{Layers: 2, MaxIters: 40, Seed: 42}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut.Value != b.Cut.Value || a.Expectation != b.Expectation {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Cut.Value, a.Expectation, b.Cut.Value, b.Expectation)
	}
}

// TestDenseSolveRepeatsBitForBit runs six identical dense-backend
// solves of a 16-node real-weighted graph, a state past the kernels'
// parallel threshold, and requires the same Expectation and Gammas bits
// from each: ⟨H_C⟩ must not depend on how the cores split the sweep.
func TestDenseSolveRepeatsBitForBit(t *testing.T) {
	g := graph.ErdosRenyi(16, 0.3, graph.UniformWeights, rng.New(5))
	opts := Options{Layers: 2, MaxIters: 20, Backend: backend.Dense{}, Seed: 3}
	var first *Result
	for run := range 6 {
		res, err := Solve(g, opts, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res
			continue
		}
		same := math.Float64bits(res.Expectation) == math.Float64bits(first.Expectation)
		for l := range res.Gammas {
			same = same && math.Float64bits(res.Gammas[l]) == math.Float64bits(first.Gammas[l])
		}
		if !same {
			t.Fatalf("run %d: expectation %v, gammas %v; run 0: %v, %v",
				run, res.Expectation, res.Gammas, first.Expectation, first.Gammas)
		}
	}
}

func BenchmarkSolve12Nodes(b *testing.B) {
	g := graph.ErdosRenyi(12, 0.3, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, Options{Layers: 3, MaxIters: 30, Seed: uint64(i)}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
