package sdp

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
	"qaoa2/internal/rng"
)

// solveADMMCold is the test-only oracle for the warm-started loop: the
// same splitting, residual test and tolerances, but every projection and
// the final factorization decompose from scratch (linalg.ProjectPSD and
// linalg.GramFactor build a fresh solver per call).
func solveADMMCold(g *graph.Graph, opts Options) *Result {
	n := g.N()
	opts = opts.withDefaults(n)
	if opts.MaxIters <= 0 {
		opts.MaxIters = 600
	}
	c := g.Laplacian()
	c.Scale(1.0 / 4.0)
	x, z := linalg.Identity(n), linalg.Identity(n)
	u, zPrev, scratch := linalg.NewDense(n), linalg.NewDense(n), linalg.NewDense(n)
	res := &Result{Method: ADMM}
	for res.Iterations < opts.MaxIters && !res.Converged {
		x.CopyFrom(z)
		x.AxpyMat(-1, u)
		x.AxpyMat(1/opts.Rho, c)
		for i := 0; i < n; i++ {
			x.Set(i, i, 1)
		}
		zPrev.CopyFrom(z)
		z.CopyFrom(x)
		z.AxpyMat(1, u)
		linalg.ProjectPSD(z)
		u.AxpyMat(1, x)
		u.AxpyMat(-1, z)
		scratch.CopyFrom(x)
		scratch.AxpyMat(-1, z)
		primal := scratch.FrobeniusNorm()
		scratch.CopyFrom(z)
		scratch.AxpyMat(-1, zPrev)
		dual := opts.Rho * scratch.FrobeniusNorm()
		scale := math.Max(1, x.FrobeniusNorm())
		res.Converged = primal <= opts.Tol*scale && dual <= opts.Tol*scale
		res.Iterations++
	}
	res.Vectors = linalg.GramFactor(z)
	normalizeRows(res.Vectors)
	res.Value = VectorObjective(g, res.Vectors)
	return res
}

// leafGraphs are the shapes QAOA² leaves take under MaxQubits 16 on
// sparse ER graphs: paths, stars, small cliques and sparse ER pieces of
// 3 to 16 nodes, two of which stop at the iteration cap.
func leafGraphs() map[string]*graph.Graph {
	out := map[string]*graph.Graph{
		"path3": graph.Path(3), "path7": graph.Path(7), "path12": graph.Path(12),
		"star4": graph.Bipartite(1, 3), "star9": graph.Bipartite(1, 8), "star16": graph.Bipartite(1, 15),
		"triangle": graph.Complete(3), "K4": graph.Complete(4),
		"cycle16": graph.Cycle(16),
	}
	r := rng.New(7)
	for n := 3; n <= 16; n++ {
		out[fmt.Sprintf("er%d", n)] = graph.ErdosRenyi(n, 0.3, graph.Unweighted, r.Split(uint64(n)))
		out[fmt.Sprintf("er%dw", n)] = graph.ErdosRenyi(n, 0.4, graph.UniformWeights, r.Split(uint64(100+n)))
	}
	return out
}

func TestWarmADMMMatchesColdOracleOnLeaves(t *testing.T) {
	capped := 0
	for name, g := range leafGraphs() {
		warm, err := Solve(g, Options{Method: ADMM})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cold := solveADMMCold(g, Options{})
		if warm.Iterations != cold.Iterations || warm.Converged != cold.Converged {
			t.Errorf("%s: warm %d iterations (converged %v), cold %d (%v)",
				name, warm.Iterations, warm.Converged, cold.Iterations, cold.Converged)
		}
		if math.Abs(warm.Value-cold.Value) > 1e-9 {
			t.Errorf("%s: warm value %.12f, cold %.12f", name, warm.Value, cold.Value)
		}
		if !warm.Converged {
			capped++
		}
	}
	if capped == 0 {
		t.Error("no leaf hit the iteration cap; the capped path is untested")
	}
}

func vectorBits(m *linalg.Mat) []uint64 {
	out := []uint64{uint64(m.Rows), uint64(m.Cols)}
	for _, v := range m.Data {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestADMMIsHistoryIndependent pins the per-solve workspace: the warm
// start lives inside one Solve, so solving A, then B, then A again
// returns bit-identical embeddings for A.
func TestADMMIsHistoryIndependent(t *testing.T) {
	r := rng.New(21)
	a := graph.ErdosRenyi(14, 0.3, graph.UniformWeights, r)
	b := graph.ErdosRenyi(14, 0.5, graph.Unweighted, r)
	solve := func(g *graph.Graph) []uint64 {
		res, err := Solve(g, Options{Method: ADMM})
		if err != nil {
			t.Fatal(err)
		}
		return vectorBits(res.Vectors)
	}
	first := solve(a)
	solve(b)
	again := solve(a)
	if len(first) != len(again) {
		t.Fatalf("embedding shape changed: %v vs %v", first[:2], again[:2])
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("embedding word %d differs after an unrelated solve", i)
		}
	}
}

// BenchmarkADMMLeaf measures the relaxation at the sizes the system
// serves (MaxQubits 16 on ER(1400): leaves of 3-16 nodes, median 5).
func BenchmarkADMMLeaf(b *testing.B) {
	for _, n := range []int{5, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.ErdosRenyi(n, 0.4, graph.Unweighted, rng.New(uint64(n)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(g, Options{Method: ADMM}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
