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

func TestADMMKnownOptima(t *testing.T) {
	for _, c := range sdpKnown {
		res, err := Solve(c.g, Options{Method: ADMM})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(res.Value-c.want) > 0.02*math.Max(1, c.want) {
			t.Fatalf("%s: ADMM value %v want %v", c.name, res.Value, c.want)
		}
	}
}

func TestMixingKnownOptima(t *testing.T) {
	for _, c := range sdpKnown {
		res, err := Solve(c.g, Options{Method: Mixing, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(res.Value-c.want) > 0.02*math.Max(1, c.want) {
			t.Fatalf("%s: mixing value %v want %v", c.name, res.Value, c.want)
		}
	}
}

func TestADMMAndMixingAgree(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 3; trial++ {
		g := graph.ErdosRenyi(20, 0.4, graph.UniformWeights, r)
		a, err := Solve(g, Options{Method: ADMM})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Solve(g, Options{Method: Mixing, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Value-m.Value) > 0.03*math.Max(1, a.Value) {
			t.Fatalf("trial %d: ADMM %v vs mixing %v", trial, a.Value, m.Value)
		}
	}
}

func TestVectorsAreUnitRows(t *testing.T) {
	r := rng.New(44)
	g := graph.ErdosRenyi(15, 0.4, graph.Unweighted, r)
	for _, method := range []Method{ADMM, Mixing} {
		res, err := Solve(g, Options{Method: method, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < res.Vectors.Rows; i++ {
			norm := linalg.Norm2(res.Vectors.Row(i))
			if math.Abs(norm-1) > 1e-6 {
				t.Fatalf("%v: row %d norm %v", method, i, norm)
			}
		}
	}
}

func TestSDPUpperBoundsMaxCut(t *testing.T) {
	// For non-negative weights the SDP value must dominate every cut.
	r := rng.New(55)
	for trial := 0; trial < 5; trial++ {
		g := graph.ErdosRenyi(12, 0.5, graph.UniformWeights, r)
		res, err := Solve(g, Options{})
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
			if cut := g.CutValue(spins); cut > res.Value+1e-6 {
				t.Fatalf("trial %d: cut %v exceeds SDP bound %v", trial, cut, res.Value)
			}
		}
	}
}

func TestDefaultIsMixingAtEveryOrder(t *testing.T) {
	for _, n := range []int{1, 2, 10, 120, 150} {
		g := graph.ErdosRenyi(n, 0.2, graph.Unweighted, rng.New(uint64(n)))
		res, err := Solve(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Method != Mixing || !res.Converged {
			t.Fatalf("n=%d: default ran %v, converged %v after %d sweeps", n, res.Method, res.Converged, res.Iterations)
		}
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	res, err := Solve(graph.New(0), Options{})
	if err != nil || res.Value != 0 {
		t.Fatalf("empty graph: %v %v", res, err)
	}
	res, err = Solve(graph.New(5), Options{Method: ADMM})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("edgeless ADMM value %v", res.Value)
	}
	res, err = Solve(graph.New(5), Options{Method: Mixing})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("edgeless mixing value %v", res.Value)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	if _, err := Solve(graph.Complete(3), Options{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMixingDeterministicForSeed(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.3, graph.Unweighted, rng.New(2))
	a, _ := Solve(g, Options{Method: Mixing, Seed: 7})
	b, _ := Solve(g, Options{Method: Mixing, Seed: 7})
	if a.Value != b.Value || a.Iterations != b.Iterations {
		t.Fatalf("same seed results differ: %v/%d vs %v/%d", a.Value, a.Iterations, b.Value, b.Iterations)
	}
}

func TestMethodString(t *testing.T) {
	if Method(0) != Mixing || ADMM.String() != "admm" || Mixing.String() != "mixing" {
		t.Fatal("method strings broken")
	}
}

func TestMixingLargeGraphRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph in -short mode")
	}
	g := graph.ErdosRenyi(400, 0.05, graph.Unweighted, rng.New(9))
	res, err := Solve(g, Options{Method: Mixing, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Must at least beat the trivial half-weight bound.
	if res.Value < g.TotalWeight()/2 {
		t.Fatalf("mixing value %v below half weight %v", res.Value, g.TotalWeight()/2)
	}
}

func BenchmarkADMM30(b *testing.B) {
	g := graph.ErdosRenyi(30, 0.3, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, Options{Method: ADMM}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMixing300(b *testing.B) {
	g := graph.ErdosRenyi(300, 0.1, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, Options{Method: Mixing, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
