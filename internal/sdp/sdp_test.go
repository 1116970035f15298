package sdp

import (
	"math"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
	"qaoa2/internal/rng"
)

// sdpKnown holds graphs with analytically known SDP optima.
var sdpKnown = []struct {
	name string
	g    *graph.Graph
	want float64
}{
	// K2: vectors antipodal, value = 1.
	{"K2", graph.Complete(2), 1},
	// K3: vectors at 120°, value = 3·(1+1/2)/2 = 2.25.
	{"K3", graph.Complete(3), 2.25},
	// C5: value = 5·(1−cos(4π/5))/2 ≈ 4.5225.
	{"C5", graph.Cycle(5), 5 * (1 - math.Cos(4*math.Pi/5)) / 2},
	// K_{3,3}: bipartite, SDP tight at 9.
	{"K33", graph.Bipartite(3, 3), 9},
	// C4: bipartite, tight at 4.
	{"C4", graph.Cycle(4), 4},
}

// TestMixingKnownOptima checks the mixing value and the dual bound
// against SDP optima known in closed form: the value may sit below the
// optimum by the stopping tolerance but never above it, and the bound
// may sit above it by its gap but never below it.
func TestMixingKnownOptima(t *testing.T) {
	for _, c := range sdpKnown {
		res, err := Solve(c.g, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bound, err := DualBound(c.g, res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		slack := 1e-4 * math.Max(1, c.want)
		if res.Value > c.want+1e-12 || res.Value < c.want-slack {
			t.Errorf("%s: value %.12f, optimum %.12f", c.name, res.Value, c.want)
		}
		if bound < c.want-1e-12 || bound > c.want+slack {
			t.Errorf("%s: bound %.12f, optimum %.12f", c.name, bound, c.want)
		}
	}
}

func TestVectorsAreUnitRows(t *testing.T) {
	r := rng.New(44)
	g := graph.ErdosRenyi(15, 0.4, graph.Unweighted, r)
	res, err := Solve(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Vectors.Rows; i++ {
		norm := linalg.Norm2(res.Vectors.Row(i))
		if math.Abs(norm-1) > 1e-6 {
			t.Fatalf("row %d norm %v", i, norm)
		}
	}
}

// TestSDPUpperBoundsMaxCut: the certified bound dominates every cut.
// (Result.Value does not: it approaches the SDP optimum from below.)
func TestSDPUpperBoundsMaxCut(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 5; trial++ {
		g := graph.ErdosRenyi(12, 0.5, graph.UniformWeights, r)
		res, err := Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound, err := DualBound(g, res)
		if err != nil {
			t.Fatal(err)
		}
		// Compare against 64 random cuts (cheap stand-in for OPT).
		spins := make([]int8, g.N())
		for k := 0; k < 64; k++ {
			for i := range spins {
				if r.Bool() {
					spins[i] = 1
				} else {
					spins[i] = -1
				}
			}
			if cut := g.CutValue(spins); cut > bound {
				t.Fatalf("trial %d: cut %v exceeds the certified bound %v", trial, cut, bound)
			}
		}
	}
}

func TestConvergesAtEveryOrder(t *testing.T) {
	for _, n := range []int{1, 2, 10, 120, 150} {
		g := graph.ErdosRenyi(n, 0.2, graph.Unweighted, rng.New(uint64(n)))
		res, err := Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: not converged after %d sweeps", n, res.Iterations)
		}
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	res, err := Solve(graph.New(0), Options{})
	if err != nil || res.Value != 0 {
		t.Fatalf("empty graph: %v %v", res, err)
	}
	if bound, err := DualBound(graph.New(0), res); err != nil || bound != 0 {
		t.Fatalf("empty graph bound %v %v", bound, err)
	}
	edgeless := graph.New(5)
	res, err = Solve(edgeless, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("edgeless value %v", res.Value)
	}
	if bound, err := DualBound(edgeless, res); err != nil || bound != 0 {
		t.Fatalf("edgeless bound %v %v", bound, err)
	}
}

func TestMixingDeterministicForSeed(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.3, graph.Unweighted, rng.New(2))
	a, _ := Solve(g, Options{Seed: 7})
	b, _ := Solve(g, Options{Seed: 7})
	if a.Value != b.Value || a.Iterations != b.Iterations {
		t.Fatalf("same seed results differ: %v/%d vs %v/%d", a.Value, a.Iterations, b.Value, b.Iterations)
	}
}

func TestMixingLargeGraphRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph in -short mode")
	}
	g := graph.ErdosRenyi(400, 0.05, graph.Unweighted, rng.New(9))
	res, err := Solve(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Must at least beat the trivial half-weight bound.
	if res.Value < g.TotalWeight()/2 {
		t.Fatalf("mixing value %v below half weight %v", res.Value, g.TotalWeight()/2)
	}
}

func BenchmarkMixing300(b *testing.B) {
	g := graph.ErdosRenyi(300, 0.1, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
