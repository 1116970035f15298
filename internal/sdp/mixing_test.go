package sdp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
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

// TestMixingWithinCertifiedBound pins the mixing method against its own
// certificate on every oracle graph, with every sign of weight:
//   - DualBound of a tightly converged embedding (Tol 1e-9) is at least
//     the exact maximum cut and at most 1e-4 relative above that
//     embedding's value, so both sit within 1e-4 of the SDP optimum;
//   - the default embedding never stops at its sweep cap, and its value
//     is at least that bound − 1e-4 relative. The sweep stops on a
//     per-sweep gain of 1e-6 relative, which on tight instances (paths,
//     trees, bipartite pieces, where cut = SDP optimum) leaves the value
//     up to 1.1e-5 relative below the optimum;
//   - no hyperplane rounding of the default embedding exceeds its value
//     by more than that tolerance.
//
// The maximum cut is re-summed from BruteForce's spins (the enumeration
// updates its running value incrementally) and compared with a margin
// of 1e-13·Σ|w|, above that sum's rounding error; the bound itself is
// rounded upward and takes no margin.
func TestMixingWithinCertifiedBound(t *testing.T) {
	slack := func(v float64) float64 { return 1e-4 * math.Max(1, math.Abs(v)) }
	worstGap := 0.0
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
				if !mix.Converged {
					t.Errorf("%s: stopped at its cap after %d sweeps", id, mix.Iterations)
				}
				tight, err := Solve(g, Options{Seed: seed, Tol: 1e-9})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				bound, err := DualBound(g, tight)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				opt, err := maxcut.BruteForce(g)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				absWeight := 0.0
				for _, e := range g.Edges() {
					absWeight += math.Abs(e.W)
				}
				if cut := g.CutValue(opt.Spins); bound < cut-1e-13*math.Max(1, absWeight) {
					t.Errorf("%s: bound %.15g below the maximum cut %.15g", id, bound, cut)
				}
				gap := bound - tight.Value
				if gap > slack(bound) {
					t.Errorf("%s: tight value %.12f, bound %.12f: gap %.3g", id, tight.Value, bound, gap)
				}
				worstGap = math.Max(worstGap, gap/math.Max(1, math.Abs(bound)))
				if mix.Value < bound-slack(bound) {
					t.Errorf("%s: default value %.12f, bound %.12f", id, mix.Value, bound)
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
	t.Logf("worst relative gap at Tol 1e-9: %.2g", worstGap)
}

// TestDualBoundRefusesLargeGraphs: above dualBoundLimit nodes the dense
// factorization is refused with the typed error, before any work.
func TestDualBoundRefusesLargeGraphs(t *testing.T) {
	_, err := DualBound(graph.New(dualBoundLimit+1), &Result{})
	var refused *graph.RefusedError
	if !errors.As(err, &refused) || !strings.Contains(err.Error(), "limit 3000") {
		t.Fatalf("err %v, want a *graph.RefusedError naming the limit", err)
	}
}

// TestDualBoundIsReadOnly: the bound leaves the embedding, the value
// and the graph as they were, and a second call returns the same bits.
func TestDualBoundIsReadOnly(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.3, graph.UniformWeights, rng.New(8))
	res, err := Solve(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	vectors, value, edges := res.Vectors.Clone(), res.Value, append([]graph.Edge(nil), g.Edges()...)
	first, err := DualBound(g, res)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := DualBound(g, res)
	if !reflect.DeepEqual(vectors, res.Vectors) || value != res.Value || !reflect.DeepEqual(edges, g.Edges()) {
		t.Fatal("DualBound modified its inputs")
	}
	if math.Float64bits(first) != math.Float64bits(second) || first < res.Value {
		t.Fatalf("bounds %v, %v for value %v", first, second, res.Value)
	}
}

// BenchmarkDualBound certifies the default relaxation of ER(n, 0.1) at
// the orders of the experiments package's Fig. 4 bound test. The
// paper-scale orders (500-2500) are timed by the root package's
// BenchmarkGWScaling, whose table has a bound-time column.
func BenchmarkDualBound(b *testing.B) {
	for _, n := range []int{150, 300, 450} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.ErdosRenyi(n, 0.1, graph.Unweighted, rng.New(uint64(n)))
			res, err := Solve(g, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DualBound(g, res); err != nil {
					b.Fatal(err)
				}
			}
		})
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
