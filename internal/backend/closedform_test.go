package backend_test

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

// closedFormP1 is ⟨H_C⟩ of the p = 1 QAOA state in closed form (Wang
// et al., arXiv 1706.02998, with weights): for each edge uv,
//
//	⟨Z_uZ_v⟩ = −½·sin 4β·sin γw_uv·(Π_{t∈N(u)∖v} cos γw_ut + Π_{t∈N(v)∖u} cos γw_vt)
//	           − ½·sin² 2β·(Π_t cos γ(w_ut + w_vt) − Π_t cos γ(w_ut − w_vt)),
//
// t over N(u) ∪ N(v) ∖ {u, v} and w = 0 off the graph, and
// ⟨H_C⟩ = Σ w_uv (1 − ⟨Z_uZ_v⟩)/2. It shares no code with the sweep
// kernels, so it checks them at sizes the Dense gate walk cannot reach.
func closedFormP1(g *graph.Graph, gamma, beta float64) float64 {
	n := g.N()
	w := make([][]float64, n)
	for u := range w {
		w[u] = make([]float64, n)
	}
	for _, e := range g.Edges() {
		w[e.I][e.J], w[e.J][e.I] = e.W, e.W
	}
	s4, s2 := math.Sin(4*beta), math.Sin(2*beta)
	h := 0.0
	for _, e := range g.Edges() {
		u, v := e.I, e.J
		pu, pv, plus, minus := 1.0, 1.0, 1.0, 1.0
		for t := range n {
			if t == u || t == v {
				continue
			}
			pu *= math.Cos(gamma * w[u][t])
			pv *= math.Cos(gamma * w[v][t])
			plus *= math.Cos(gamma * (w[u][t] + w[v][t]))
			minus *= math.Cos(gamma * (w[u][t] - w[v][t]))
		}
		zz := -0.5*s4*math.Sin(gamma*e.W)*(pu+pv) - 0.5*s2*s2*(plus-minus)
		h += e.W * (1 - zz) / 2
	}
	return h
}

// signedGraph is ER(n, p) with nonzero integer weights in [−15, 15],
// the weights a merge graph carries.
func signedGraph(n int, p float64, r *rng.Rand) *graph.Graph {
	g := graph.New(n)
	for i := range n {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				w := 1 + r.Intn(15)
				if r.Float64() < 0.5 {
					w = -w
				}
				g.MustAddEdge(i, j, float64(w))
			}
		}
	}
	return g
}

// TestFusedMatchesClosedFormP1 checks the fused Evaluate at p = 1
// against closedFormP1 to 1e-12·Σ|w|, on every kernel tier this
// process may run, for the Z2-reduced and the fused-full engine, on
// unweighted, uniform-weight and signed-integer graphs of 8, 14 and 20
// nodes and one 22-node Z2 case.
func TestFusedMatchesClosedFormP1(t *testing.T) {
	type leaf struct {
		name string
		g    *graph.Graph
		be   []backend.Fused
	}
	both := []backend.Fused{{}, {Full: true}}
	var leaves []leaf
	for _, n := range []int{8, 14, 20} {
		seed := uint64(n) * 7
		leaves = append(leaves,
			leaf{fmt.Sprintf("unweighted-%d", n), graph.ErdosRenyi(n, 0.3, graph.Unweighted, rng.New(seed)), both},
			leaf{fmt.Sprintf("uniform-%d", n), graph.ErdosRenyi(n, 0.3, graph.UniformWeights, rng.New(seed+1)), both},
			leaf{fmt.Sprintf("signed-%d", n), signedGraph(n, 0.3, rng.New(seed+2)), both})
	}
	leaves = append(leaves, leaf{"signed-22", signedGraph(22, 0.2, rng.New(22)), []backend.Fused{{}}})

	points := [][2]float64{{0.37, 0.83}, {-1.21, 0.29}}
	for _, l := range leaves {
		abs := 0.0
		for _, e := range l.g.Edges() {
			abs += math.Abs(e.W)
		}
		for _, fb := range l.be {
			ans, err := fb.Prepare(l.g, backend.Config{Layers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range kernelTiers {
				restore, err := qsim.SetKernelTier(tier)
				if err != nil {
					break // above this process's tier, as is every later one
				}
				for _, pt := range points {
					got, _, err := ans.Evaluate([]float64{pt[0]}, []float64{pt[1]})
					if err != nil {
						restore()
						t.Fatal(err)
					}
					if want := closedFormP1(l.g, pt[0], pt[1]); math.Abs(got-want) > 1e-12*abs {
						t.Errorf("%s %s %s γ=%v β=%v: Evaluate %v, closed form %v (diff %.3g, Σ|w| %v)",
							l.name, fb.Name(), tier, pt[0], pt[1], got, want, got-want, abs)
					}
				}
				restore()
			}
			backend.Release(ans)
		}
	}
}
