package sdp

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

// reweighted copies g with every edge weight replaced by w(edge).
func reweighted(g *graph.Graph, w func(graph.Edge) float64) *graph.Graph {
	out := graph.New(g.N())
	for _, e := range g.Edges() {
		out.MustAddEdge(e.I, e.J, w(e))
	}
	return out
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// oracleGraphs are the shapes the default relaxation meets inside QAOA²
// at order n: ER leaves (unit and real-weighted), the signed-integer
// contracted graph of a merge level, and the degenerate pieces sparse
// partitions leave behind.
func oracleGraphs(n int, r *rng.Rand) []namedGraph {
	signed := func(g *graph.Graph) *graph.Graph {
		return reweighted(g, func(graph.Edge) float64 {
			w := float64(1 + r.Intn(4))
			if r.Bool() {
				w = -w
			}
			return w
		})
	}
	tree := graph.New(n)
	for i := 1; i < n; i++ {
		tree.MustAddEdge(r.Intn(i), i, 1)
	}
	split := graph.New(n)
	for _, e := range graph.ErdosRenyi(n, 0.6, graph.Unweighted, r).Edges() {
		if (e.I < n/2) == (e.J < n/2) {
			split.MustAddEdge(e.I, e.J, 1)
		}
	}
	isolated := graph.New(n)
	for _, e := range graph.ErdosRenyi(n, 0.5, graph.UniformWeights, r).Edges() {
		if e.I%3 != 0 && e.J%3 != 0 {
			isolated.MustAddEdge(e.I, e.J, e.W)
		}
	}
	return []namedGraph{
		{"unit-sparse", graph.ErdosRenyi(n, 0.25, graph.Unweighted, r)},
		{"unit-dense", graph.ErdosRenyi(n, 0.8, graph.Unweighted, r)},
		{"real", graph.ErdosRenyi(n, 0.4, graph.UniformWeights, r)},
		{"signed", signed(graph.ErdosRenyi(n, 0.5, graph.Unweighted, r))},
		{"tree", tree},
		{"path", graph.Path(n)},
		{"disconnected", split},
		{"isolated", isolated},
		{"edgeless", graph.New(n)},
		{"negative", reweighted(graph.ErdosRenyi(n, 0.5, graph.UniformWeights, r), func(e graph.Edge) float64 {
			return e.W - 0.8
		})},
	}
}

// TestMixingMatchesADMMReference pins the default against the reference
// solver: the mixing method never stops at its sweep cap; wherever ADMM
// meets its residual test the two SDP values agree; the value bounds the
// exact maximum cut on non-negative weights; no hyperplane rounding of
// its embedding exceeds it. All three comparisons share one tolerance,
// 1e-4 relative: the sweep stops on a per-sweep gain of 1e-6 relative,
// which on tight instances (paths, trees, bipartite pieces, where cut =
// SDP optimum) leaves the value up to 1.1e-5 relative below the optimum.
func TestMixingMatchesADMMReference(t *testing.T) {
	compared := 0
	slack := func(v float64) float64 { return 1e-4 * math.Max(1, math.Abs(v)) }
	for n := 1; n <= 16; n++ {
		for seed := uint64(0); seed < 3; seed++ {
			r := rng.New(1000*uint64(n) + seed)
			for _, c := range oracleGraphs(n, r) {
				g := c.g
				id := fmt.Sprintf("%s n=%d seed=%d", c.name, n, seed)
				mix, err := Solve(g, Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if mix.Method != Mixing || !mix.Converged {
					t.Errorf("%s: %v stopped at its cap after %d sweeps", id, mix.Method, mix.Iterations)
				}
				ref, err := Solve(g, Options{Method: ADMM})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if ref.Converged {
					compared++
					if d := math.Abs(mix.Value - ref.Value); d > slack(ref.Value) {
						t.Errorf("%s: mixing value %.9f, ADMM %.9f", id, mix.Value, ref.Value)
					}
				}
				nonNegative := true
				for _, e := range g.Edges() {
					nonNegative = nonNegative && e.W >= 0
				}
				if nonNegative {
					opt, err := maxcut.BruteForce(g)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if mix.Value < opt.Value-slack(opt.Value) {
						t.Errorf("%s: mixing value %.9f below the maximum cut %v", id, mix.Value, opt.Value)
					}
				}
				normal := make([]float64, mix.Vectors.Cols)
				spins := make([]int8, n)
				for round := 0; round < 10; round++ {
					for j := range normal {
						normal[j] = r.NormFloat64()
					}
					for i := range spins {
						spins[i] = 1
						if linalg.Dot(mix.Vectors.Row(i), normal) < 0 {
							spins[i] = -1
						}
					}
					if cut := g.CutValue(spins); cut > mix.Value+slack(mix.Value) {
						t.Errorf("%s: rounded cut %v above the relaxation value %.9f", id, cut, mix.Value)
					}
				}
			}
		}
	}
	if compared < 200 {
		t.Errorf("ADMM converged on only %d graphs; the oracle comparison is too thin", compared)
	}
}

// BenchmarkMixingLeaf is the default relaxation at the orders the system
// serves (leaves of 3-16 nodes, median 5) and at the order where the
// retired size rule used to hand over to it. Allocations per solve are
// the embedding, the gradient buffer, the rng and the result.
func BenchmarkMixingLeaf(b *testing.B) {
	for _, n := range []int{5, 16, 120} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.ErdosRenyi(n, 0.4, graph.Unweighted, rng.New(uint64(n)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(g, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
