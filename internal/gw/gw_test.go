package gw

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	"qaoa2/internal/sdp"
)

func TestGWFindsBipartiteOptimum(t *testing.T) {
	// Bipartite graphs have a tight SDP, so GW's best rounding over 30
	// hyperplanes recovers the full cut with overwhelming probability.
	g := graph.Bipartite(4, 5)
	res, err := Solve(g, sdp.Options{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value != 20 {
		t.Fatalf("GW best on K_{4,5} = %v want 20", res.Best.Value)
	}
	if err := res.Best.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestGWRespectsApproximationGuarantee(t *testing.T) {
	// E[cut] ≥ 0.878·OPT; with 30 rounds the empirical average should
	// comfortably clear a slightly relaxed 0.85 threshold vs brute force.
	r := rng.New(2)
	for trial := 0; trial < 5; trial++ {
		g := graph.ErdosRenyi(14, 0.5, graph.UniformWeights, r)
		if g.M() == 0 {
			continue
		}
		opt, err := maxcut.BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, sdp.Options{}, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Average < 0.85*opt.Value {
			t.Fatalf("trial %d: GW average %v < 0.85·OPT (%v)", trial, res.Average, opt.Value)
		}
		if res.Best.Value > opt.Value+1e-9 {
			t.Fatalf("trial %d: GW best %v exceeds optimum %v", trial, res.Best.Value, opt.Value)
		}
	}
}

func TestGWAverageAtMostBest(t *testing.T) {
	r := rng.New(3)
	g := graph.ErdosRenyi(20, 0.3, graph.Unweighted, r)
	res, err := Solve(g, sdp.Options{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Average > res.Best.Value+1e-9 {
		t.Fatalf("average %v above best %v", res.Average, res.Best.Value)
	}
	bound, err := sdp.DualBound(g, res.Relaxation)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value > bound {
		t.Fatalf("best %v above the certified bound %v (relaxation %v)", res.Best.Value, bound, res.Relaxation.Value)
	}
}

// TestGWRoundsItsRelaxation: Relaxation is the embedding Solve rounded.
// It equals an independent sdp.Solve under the same options, and
// Rounds roundings of its Vectors with normals from a fresh generator
// of Solve's seed reproduce Average and Best bit for bit.
func TestGWRoundsItsRelaxation(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.2, graph.UniformWeights, rng.New(12))
	opts := sdp.Options{Seed: 5}
	res, err := Solve(g, opts, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sdp.Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Relaxation
	if math.Float64bits(got.Value) != math.Float64bits(rel.Value) || got.Iterations != rel.Iterations ||
		got.Converged != rel.Converged || !reflect.DeepEqual(got.Vectors, rel.Vectors) {
		t.Fatalf("relaxation value %v after %d sweeps, an independent solve %v after %d", got.Value, got.Iterations, rel.Value, rel.Iterations)
	}

	r := rng.New(13)
	normal := make([]float64, got.Vectors.Cols)
	spins := make([]int8, g.N())
	sum, best := 0.0, math.Inf(-1)
	var bestSpins []int8
	for range Rounds {
		for j := range normal {
			normal[j] = r.NormFloat64()
		}
		Round(got.Vectors, normal, spins)
		v := g.CutValue(spins)
		sum += v
		if v > best {
			best, bestSpins = v, slices.Clone(spins)
		}
	}
	if avg := sum / Rounds; math.Float64bits(avg) != math.Float64bits(res.Average) {
		t.Fatalf("re-rounded average %v, Solve's %v", avg, res.Average)
	}
	if math.Float64bits(best) != math.Float64bits(res.Best.Value) || !slices.Equal(bestSpins, res.Best.Spins) {
		t.Fatalf("re-rounded best %v %v, Solve's %v %v", best, bestSpins, res.Best.Value, res.Best.Spins)
	}
}

func TestGWDeterministicGivenSeed(t *testing.T) {
	g := graph.ErdosRenyi(15, 0.4, graph.UniformWeights, rng.New(4))
	a, err := Solve(g, sdp.Options{Seed: 9}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, sdp.Options{Seed: 9}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Average != b.Average || a.Best.Value != b.Best.Value {
		t.Fatalf("GW not deterministic: %v/%v vs %v/%v", a.Average, a.Best.Value, b.Average, b.Best.Value)
	}
}

func TestGWEmptyGraph(t *testing.T) {
	res, err := Solve(graph.New(0), sdp.Options{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Average != 0 || res.Best.Value != 0 {
		t.Fatalf("empty graph GW %+v", res)
	}
}

func TestGWSingleEdge(t *testing.T) {
	g := graph.Complete(2)
	res, err := Solve(g, sdp.Options{}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// The SDP embeds antipodally; every hyperplane separates them.
	if res.Best.Value != 1 {
		t.Fatalf("K2 best %v", res.Best.Value)
	}
	if math.Abs(res.Average-1) > 1e-9 {
		t.Fatalf("K2 average %v want 1", res.Average)
	}
}

func TestGWReportsRelaxationConvergence(t *testing.T) {
	// A 12-node path is the leaf shape sparse ER partitions produce most;
	// the default relaxation settles on it well under its 300-sweep cap.
	// A budget too small to settle is reported, and still rounds to a
	// valid cut; only the flag differs.
	path := graph.Path(12)
	res, err := Solve(path, sdp.Options{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rel := res.Relaxation; !rel.Converged || rel.Iterations > 150 {
		t.Fatalf("path12: converged %v after %d sweeps", rel.Converged, rel.Iterations)
	}
	if res.Best.Value != 11 {
		t.Fatalf("path12 best cut %v want 11", res.Best.Value)
	}
	capped, err := Solve(path, sdp.Options{MaxIters: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rel := capped.Relaxation; rel.Converged || rel.Iterations != 3 {
		t.Fatalf("path12 with 3 sweeps: converged %v after %d, want the cap reported", rel.Converged, rel.Iterations)
	}
	if err := capped.Best.Validate(path); err != nil {
		t.Fatal(err)
	}
}

// TestGWMeetsGuaranteeAtEveryLeafOrder holds the default path to the
// Goemans-Williamson bound on what QAOA² hands it: at every order 2-16,
// on unit and real-weighted ER pieces, the best of 30 roundings reaches
// 0.878·OPT and never exceeds OPT.
func TestGWMeetsGuaranteeAtEveryLeafOrder(t *testing.T) {
	r := rng.New(11)
	for n := 2; n <= 16; n++ {
		for _, w := range []graph.Weighting{graph.Unweighted, graph.UniformWeights} {
			for _, p := range []float64{0.25, 0.7} {
				g := graph.ErdosRenyi(n, p, w, r)
				opt, err := maxcut.BruteForce(g)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Solve(g, sdp.Options{}, r)
				if err != nil {
					t.Fatal(err)
				}
				if res.Best.Value < 0.878*opt.Value || res.Best.Value > opt.Value+1e-9 {
					t.Fatalf("n=%d p=%v %v: GW best %v, optimum %v", n, p, w, res.Best.Value, opt.Value)
				}
			}
		}
	}
}

func TestRoundTieBreak(t *testing.T) {
	// A vector orthogonal to the hyperplane normal lands on +1.
	v := linalg.NewMat(2, 2)
	v.Set(0, 0, 1) // along normal
	v.Set(1, 1, 1) // orthogonal to normal
	spins := make([]int8, 2)
	Round(v, []float64{1, 0}, spins)
	if spins[0] != 1 || spins[1] != 1 {
		t.Fatalf("rounding spins %v", spins)
	}
	Round(v, []float64{-1, 0}, spins)
	if spins[0] != -1 {
		t.Fatalf("negative projection should give -1, got %v", spins[0])
	}
}

func TestGWLargeGraphViaMixing(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph in -short mode")
	}
	r := rng.New(8)
	g := graph.ErdosRenyi(300, 0.05, graph.Unweighted, r)
	res, err := Solve(g, sdp.Options{Seed: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value < g.TotalWeight()/2 {
		t.Fatalf("GW best %v below half weight %v", res.Best.Value, g.TotalWeight()/2)
	}
}

// TestSolveAllocationCeiling: a 16-node leaf allocates its answer —
// the two results, the embedding with its header, and the best spins
// with the rounding scratch behind them — and nothing else. Five
// allocations; the ceiling is that plus a tenth, rounded up, as
// toolchains differ by a few.
func TestSolveAllocationCeiling(t *testing.T) {
	g := graph.ErdosRenyi(16, 0.4, graph.Unweighted, rng.New(16))
	r := rng.New(2)
	const ceiling = 6
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(g, sdp.Options{}, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("a 16-node GW leaf allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkGWLeaf16 is one GW leaf at the qubit budget the benchmark
// workloads use: the default relaxation plus 30 roundings on 16 nodes.
func BenchmarkGWLeaf16(b *testing.B) {
	g := graph.ErdosRenyi(16, 0.4, graph.Unweighted, rng.New(16))
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, sdp.Options{}, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGW25(b *testing.B) {
	g := graph.ErdosRenyi(25, 0.3, graph.Unweighted, rng.New(1))
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, sdp.Options{}, r); err != nil {
			b.Fatal(err)
		}
	}
}
