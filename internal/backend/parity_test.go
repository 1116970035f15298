// Property tests pinning FusedBackend to DenseBackend, the reference
// oracle: identical amplitudes (within 1e-12, including global phase)
// and identical decoded cuts across random graphs, depths p ∈ {1,2,3}
// and seeds. An external test package so the tests can
// drive the full qaoa.Solve loop without an import cycle.
package backend_test

import (
	"math"
	"math/cmplx"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

// decodeArgmax reproduces the paper's decoding rule: the cut value of
// the highest-probability basis state (ties: the lowest index).
func decodeArgmax(g *graph.Graph, s *qsim.State) float64 {
	x := uint64(0)
	for i := range uint64(s.Len()) {
		if s.Probability(i) > s.Probability(x) {
			x = i
		}
	}
	bits := make([]uint8, g.N())
	for q := range bits {
		bits[q] = uint8(x >> uint(q) & 1)
	}
	return g.CutValueBits(bits)
}

// kernelTiers are the kernel tier names, lowest first.
var kernelTiers = []string{"portable", "avx2", "avx512"}

// TestFusedMatchesDense pins the default Z2-reduced engine (its state
// is expanded before comparing) and the explicit unreduced fused-full
// control to the Dense oracle, in one subtest per kernel tier this
// process may run: Dense's per-gate walk does not go through the tiered
// kernels, so it is the same oracle for every tier. The size list
// crosses the reduced engine's single-tile / mirrored-pair kernel
// regimes.
func TestFusedMatchesDense(t *testing.T) {
	for _, tier := range kernelTiers {
		restore, err := qsim.SetKernelTier(tier)
		if err != nil {
			break // above this process's tier, as is every later one
		}
		t.Run(tier, checkFusedMatchesDense)
		restore()
	}
}

func checkFusedMatchesDense(t *testing.T) {
	for _, fb := range []backend.Fused{{}, {Full: true}} {
		for _, w := range []graph.Weighting{graph.Unweighted, graph.UniformWeights} {
			for _, n := range []int{5, 8, 11, 13} {
				for seed := uint64(0); seed < 3; seed++ {
					g := graph.ErdosRenyi(n, 0.45, w, rng.New(seed*31+uint64(n)))
					if g.M() == 0 {
						continue
					}
					for p := 1; p <= 3; p++ {
						dAns, err := backend.Dense{}.Prepare(g, backend.Config{Layers: p})
						if err != nil {
							t.Fatal(err)
						}
						fAns, err := fb.Prepare(g, backend.Config{Layers: p})
						if err != nil {
							t.Fatal(err)
						}
						pr := rng.New(seed ^ 0xfeed)
						gammas := make([]float64, p)
						betas := make([]float64, p)
						for l := range gammas {
							gammas[l] = pr.Float64() * 2 * math.Pi
							betas[l] = pr.Float64() * math.Pi
						}
						eD, sD, err := dAns.Evaluate(gammas, betas)
						if err != nil {
							t.Fatal(err)
						}
						eF, sF, err := fAns.Evaluate(gammas, betas)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(eD-eF) > 1e-12 {
							t.Fatalf("%s w=%v n=%d seed=%d p=%d: energies %v vs %v", fb.Name(), w, n, seed, p, eD, eF)
						}
						if !fb.Full && (sF.Z2Full() != n || sF.Len() != 1<<uint(n-1)) {
							t.Fatalf("%s w=%v n=%d seed=%d p=%d: state not reduced: Z2Full=%d Len=%d",
								fb.Name(), w, n, seed, p, sF.Z2Full(), sF.Len())
						}
						full := sF.ExpandZ2()
						for i := 0; i < sD.Len(); i++ {
							if d := cmplx.Abs(sD.Amp(uint64(i)) - full.Amp(uint64(i))); d > 1e-12 {
								t.Fatalf("%s w=%v n=%d seed=%d p=%d: amp %d differs by %v", fb.Name(), w, n, seed, p, i, d)
							}
						}
						// Decoded cut parity: compare values, not indices — the
						// x ↔ ~x spin-flip symmetry makes the argmax index
						// legitimately degenerate.
						if cD, cF := decodeArgmax(g, sD), decodeArgmax(g, sF); cD != cF {
							t.Fatalf("%s w=%v n=%d seed=%d p=%d: decoded cuts %v vs %v", fb.Name(), w, n, seed, p, cD, cF)
						}
					}
				}
			}
		}
	}
}

// TestFusedZ2OptOut pins the reduction's one escape hatch: the Full
// field (fused-full) produces unreduced full-length states, and the
// default reduced ones.
func TestFusedZ2OptOut(t *testing.T) {
	g := graph.ErdosRenyi(7, 0.5, graph.Unweighted, rng.New(11))
	gammas, betas := []float64{0.4}, []float64{0.9}
	evaluate := func(b backend.Backend) *qsim.State {
		t.Helper()
		ans, err := b.Prepare(g, backend.Config{Layers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, s, err := ans.Evaluate(gammas, betas)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	if s := evaluate(backend.Fused{}); s.Z2Full() != g.N() {
		t.Fatalf("default state not reduced: Z2Full=%d", s.Z2Full())
	}
	if s := evaluate(backend.Fused{Full: true}); s.Z2Full() != 0 || s.Len() != 1<<uint(g.N()) {
		t.Fatalf("full state reduced: Z2Full=%d Len=%d", s.Z2Full(), s.Len())
	}
}

// TestSolveBackendParity runs the full variational loop under both
// backends: identical seeds must land on identical parameters, cuts,
// and expectations, because every objective evaluation agrees to well
// below COBYLA's termination tolerance.
func TestSolveBackendParity(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.ErdosRenyi(9, 0.4, graph.UniformWeights, rng.New(100+seed))
		if g.M() == 0 {
			continue
		}
		rD, err := qaoa.Solve(g, qaoa.Options{
			Layers: 2, MaxIters: 40, Backend: backend.Dense{}, Seed: seed,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rF, err := qaoa.Solve(g, qaoa.Options{
			Layers: 2, MaxIters: 40, Backend: backend.Fused{}, Seed: seed,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if rD.Cut.Value != rF.Cut.Value {
			t.Fatalf("seed %d: dense cut %v != fused cut %v", seed, rD.Cut.Value, rF.Cut.Value)
		}
		if math.Abs(rD.Expectation-rF.Expectation) > 1e-9 {
			t.Fatalf("seed %d: expectations %v vs %v", seed, rD.Expectation, rF.Expectation)
		}
	}
}
