package qaoa

import (
	"fmt"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

// TestDecodeAgreesAcrossTiers solves 420 leaves with SolveCut, the
// QAOA² leaf path, on every kernel tier the host allows and requires
// the same spins from each. The tiers' probabilities differ in their
// last bits, so a decode that ranks by probability alone splits
// between equal-probability optima; the tie-set decode must not.
func TestDecodeAgreesAcrossTiers(t *testing.T) {
	var leaves []*graph.Graph
	for seed := uint64(0); len(leaves) < 420; seed++ {
		w := []graph.Weighting{graph.Unweighted, graph.UniformWeights}[seed%2]
		g := graph.ErdosRenyi(6+int(seed%9), 0.35, w, rng.New(seed))
		if g.M() > 0 {
			leaves = append(leaves, g)
		}
	}
	var want []string
	for _, tier := range []string{"portable", "avx2", "avx512"} {
		restore, err := qsim.SetKernelTier(tier)
		if err != nil {
			break // above this process's tier, as is every later one
		}
		split := 0
		for i, g := range leaves {
			res, err := SolveCut(g, Options{Layers: 2, MaxIters: 30, Seed: uint64(i)}, rng.New(uint64(i)))
			if err != nil {
				restore()
				t.Fatal(err)
			}
			got := fmt.Sprint(res.Cut.Spins)
			if want == nil || len(want) <= i {
				want = append(want, got)
			} else if got != want[i] {
				split++
				t.Errorf("%s: leaf %d (n=%d m=%d) decodes %s, portable decodes %s", tier, i, g.N(), g.M(), got, want[i])
			}
		}
		restore()
		t.Logf("%s: %d of %d leaves split from portable", tier, split, len(leaves))
	}
}
