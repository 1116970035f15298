package maxcut

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

func TestBruteForceKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K2", graph.Complete(2), 1},
		{"K3", graph.Complete(3), 2},
		{"K4", graph.Complete(4), 4},
		{"K5", graph.Complete(5), 6},
		{"C4", graph.Cycle(4), 4},
		{"C5", graph.Cycle(5), 4},
		{"C6", graph.Cycle(6), 6},
		{"P4", graph.Path(4), 3},
		{"K33", graph.Bipartite(3, 3), 9},
		{"K24", graph.Bipartite(2, 4), 8},
	}
	for _, c := range cases {
		got, err := BruteForce(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Value != c.want {
			t.Fatalf("%s: brute force=%v want %v", c.name, got.Value, c.want)
		}
		if err := got.Validate(c.g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestBruteForceWeighted(t *testing.T) {
	// Triangle with weights 5, 1, 1: optimum cuts the two light edges? No:
	// optimum cuts edge(5) plus one of weight 1 → 6.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	got, err := BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 6 {
		t.Fatalf("weighted triangle optimum=%v want 6", got.Value)
	}
}

func TestBruteForceTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := graph.New(n)
		c, err := BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value != 0 {
			t.Fatalf("edgeless graph n=%d cut=%v", n, c.Value)
		}
	}
}

func TestBruteForceRejectsHuge(t *testing.T) {
	if _, err := BruteForce(graph.New(MaxExactNodes + 1)); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestBruteForceMatchesNaiveEnumeration(t *testing.T) {
	// Cross-check the gray-code implementation against a direct
	// exponential scan on small random graphs.
	r := rng.New(6)
	for trial := 0; trial < 10; trial++ {
		g := graph.ErdosRenyi(9, 0.5, graph.UniformWeights, r)
		fast, err := BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		bestNaive := 0.0
		n := g.N()
		spins := make([]int8, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					spins[i] = 1
				} else {
					spins[i] = -1
				}
			}
			if v := g.CutValue(spins); v > bestNaive {
				bestNaive = v
			}
		}
		if math.Abs(fast.Value-bestNaive) > 1e-9 {
			t.Fatalf("trial %d: gray-code=%v naive=%v", trial, fast.Value, bestNaive)
		}
	}
}

func TestRandomCutBasics(t *testing.T) {
	r := rng.New(8)
	g := graph.Complete(10)
	c := RandomCut(g, 5, r)
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if c.Value <= 0 {
		t.Fatalf("random cut on K10 = %v", c.Value)
	}
	// More trials can only help (same generator advanced, so just sanity).
	c2 := RandomCut(g, 50, rng.New(8))
	if c2.Value < c.Value-25 {
		t.Fatalf("more trials much worse: %v vs %v", c2.Value, c.Value)
	}
}

func TestOneExchangeIsLocalOptimum(t *testing.T) {
	r := rng.New(12)
	g := graph.ErdosRenyi(40, 0.2, graph.UniformWeights, r)
	c := OneExchange(g, r)
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	// No single flip may improve the cut.
	for v := 0; v < g.N(); v++ {
		delta := 0.0
		for _, h := range g.Neighbors(v) {
			if c.Spins[v] == c.Spins[h.To] {
				delta += h.W
			} else {
				delta -= h.W
			}
		}
		if delta > 1e-9 {
			t.Fatalf("node %d still has positive gain %v", v, delta)
		}
	}
}

func TestOneExchangeBeatsHalfWeight(t *testing.T) {
	// A 1-exchange local optimum always cuts at least half of the total
	// weight in unweighted graphs (standard guarantee).
	r := rng.New(13)
	for trial := 0; trial < 5; trial++ {
		g := graph.ErdosRenyi(30, 0.3, graph.Unweighted, r)
		c := OneExchange(g, r)
		if c.Value < g.TotalWeight()/2-1e-9 {
			t.Fatalf("local optimum %v below half weight %v", c.Value, g.TotalWeight()/2)
		}
	}
}

func TestSimulatedAnnealingFindsBipartiteOptimum(t *testing.T) {
	r := rng.New(14)
	g := graph.Bipartite(6, 6)
	c := SimulatedAnnealing(g, AnnealOptions{Sweeps: 300}, r)
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
	if c.Value != 36 {
		t.Fatalf("annealing on K_{6,6} = %v want 36", c.Value)
	}
}

func TestSimulatedAnnealingNearOptimalSmall(t *testing.T) {
	r := rng.New(15)
	g := graph.ErdosRenyi(16, 0.4, graph.UniformWeights, r)
	exact, err := BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	c := SimulatedAnnealing(g, AnnealOptions{Sweeps: 500}, r)
	if c.Value < 0.95*exact.Value {
		t.Fatalf("annealing %v < 95%% of optimum %v", c.Value, exact.Value)
	}
}

func TestSimulatedAnnealingEmptyGraph(t *testing.T) {
	c := SimulatedAnnealing(graph.New(0), AnnealOptions{}, rng.New(1))
	if c.Value != 0 || len(c.Spins) != 0 {
		t.Fatalf("empty graph cut = %+v", c)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := graph.Complete(3)
	c, _ := BruteForce(g)
	bad := Cut{Spins: slices.Clone(c.Spins), Value: c.Value}
	bad.Value += 1
	if err := bad.Validate(g); err == nil {
		t.Fatal("corrupted value accepted")
	}
	bad2 := Cut{Spins: slices.Clone(c.Spins), Value: c.Value}
	bad2.Spins[0] = 0
	if err := bad2.Validate(g); err == nil {
		t.Fatal("invalid spin accepted")
	}
	bad3 := Cut{Spins: []int8{1}, Value: 0}
	if err := bad3.Validate(g); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestHeuristicsNeverExceedOptimum(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := graph.ErdosRenyi(12, 0.4, graph.UniformWeights, r)
		exact, err := BruteForce(g)
		if err != nil {
			return false
		}
		eps := 1e-9
		if RandomCut(g, 3, r).Value > exact.Value+eps {
			return false
		}
		if OneExchange(g, r).Value > exact.Value+eps {
			return false
		}
		if SimulatedAnnealing(g, AnnealOptions{Sweeps: 50}, r).Value > exact.Value+eps {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBruteForce20(b *testing.B) {
	g := graph.ErdosRenyi(20, 0.3, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BruteForce(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneExchange500(b *testing.B) {
	r := rng.New(1)
	g := graph.ErdosRenyi(500, 0.1, graph.Unweighted, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OneExchange(g, r)
	}
}
