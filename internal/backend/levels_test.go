package backend

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

// floatPrepare is the float-build oracle: f.Prepare's ansatz, same Z2
// decision, with its tables rebuilt from CutTable and phaseTables —
// the path real-weighted graphs take — and its engine rebuilt over
// them.
func floatPrepare(f Fused, g *graph.Graph, layers int) (Ansatz, error) {
	ans, err := f.Prepare(g, Config{Layers: layers})
	if err != nil {
		return nil, err
	}
	a := ans.(*fusedAnsatz)
	k := a.n
	if a.z2 {
		k--
	}
	a.diag = CutTable(g, nil)
	a.cost = phaseTables(a.diag, -g.TotalWeight()/2, make([]int32, 1<<uint(k)))
	a.eng, err = a.newEngine()
	return a, err
}

// sameEvaluation requires two ansätze to return bit-identical energies
// and amplitudes at the same angles.
func sameEvaluation(t *testing.T, name string, got, want Ansatz, gammas, betas []float64) {
	t.Helper()
	eg, sg, err := got.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	ew, sw, err := want.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(eg) != math.Float64bits(ew) {
		t.Fatalf("%s: energy %v, float build %v", name, eg, ew)
	}
	if sg.Len() != sw.Len() {
		t.Fatalf("%s: %d amplitudes, float build %d", name, sg.Len(), sw.Len())
	}
	for i := 0; i < sg.Len(); i++ {
		a, b := sg.Amp(uint64(i)), sw.Amp(uint64(i))
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			t.Fatalf("%s: amplitude %d = %v, float build %v", name, i, a, b)
		}
	}
}

// TestFusedIntegralBuildMatchesFloatBuild is the integral build's
// differential test: at n = 1…14 on unweighted, signed-integer
// (merge-graph-like) and zero-weight-edge graphs, under fused,
// and fused-full, the ansatz Prepare builds from int32
// level indices must evaluate bit for bit like the CutTable →
// phaseTables oracle, expand Diagonal() to CutTable bit for bit, and
// report CutTable's maximum as TableMax.
func TestFusedIntegralBuildMatchesFloatBuild(t *testing.T) {
	r := rng.New(28)
	weightings := []struct {
		name string
		w    func() float64
	}{
		{"unweighted", func() float64 { return 1 }},
		{"signed", func() float64 { return float64(int(r.Uint64()%13) - 6) }},
		{"zero-edges", func() float64 { return float64(r.Uint64() % 2) }},
	}
	backends := []Fused{{}, {Full: true}}
	for n := 1; n <= 14; n++ {
		for _, wt := range weightings {
			g := graph.New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if r.Float64() < 0.5 {
						g.MustAddEdge(i, j, wt.w())
					}
				}
			}
			table := CutTable(g, nil)
			layers := 1 + n%3
			gammas, betas := make([]float64, layers), make([]float64, layers)
			for l := range gammas {
				gammas[l], betas[l] = r.Float64()*2, r.Float64()
			}
			for _, f := range backends {
				name := fmt.Sprintf("n=%d %s %s", n, wt.name, f.Name())
				got, err := f.Prepare(g, Config{Layers: layers})
				if err != nil {
					t.Fatal(err)
				}
				if got.(*fusedAnsatz).diag != nil {
					t.Fatalf("%s: the integral build holds a float64 table", name)
				}
				want, err := floatPrepare(f, g, layers)
				if err != nil {
					t.Fatal(err)
				}
				sameEvaluation(t, name, got, want, gammas, betas)
				if m := TableMax(got); math.Float64bits(m) != math.Float64bits(slices.Max(table)) {
					t.Fatalf("%s: TableMax %v, CutTable max %v", name, m, slices.Max(table))
				}
				diag := got.Diagonal()
				if len(diag) != len(table) {
					t.Fatalf("%s: Diagonal has %d entries, want %d", name, len(diag), len(table))
				}
				for x, v := range table {
					if math.Float64bits(diag[x]) != math.Float64bits(v) {
						t.Fatalf("%s: Diagonal()[%d] = %v, CutTable %v", name, x, diag[x], v)
					}
				}
			}
		}
	}
}

// TestFusedIntegralSpanGuard pins the guard at its boundary: a graph
// with Σ|w| + 1 = maxPhaseLevels takes the int32 build, one more unit
// of weight takes the float build, and both evaluate bit for bit like
// the float oracle. Real weights never take the int32 build, however
// small their span.
func TestFusedIntegralSpanGuard(t *testing.T) {
	const n = 9
	signedGraph := func(extra float64) *graph.Graph {
		// 35 edges of ±113 (Σ|w| = 3955) plus one of 140 + extra.
		g := graph.New(n)
		e := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				w := 113.0
				if e%2 == 1 {
					w = -113
				}
				if e == 35 {
					w = 140 + extra
				}
				g.MustAddEdge(i, j, w)
				e++
			}
		}
		return g
	}
	realWeighted := graph.New(n)
	for i := 0; i+1 < n; i++ {
		realWeighted.MustAddEdge(i, i+1, 1.5)
	}
	gammas, betas := []float64{0.4, 0.013}, []float64{0.7, 0.2}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		integral bool
	}{
		{"at the cap", signedGraph(0), true},
		{"one unit over", signedGraph(1), false},
		{"real weights", realWeighted, false},
	} {
		span := 0.0
		for _, e := range tc.g.Edges() {
			span += math.Abs(e.W)
		}
		if tc.integral && span+1 != maxPhaseLevels {
			t.Fatalf("%s: fixture spans Σ|w| + 1 = %v, want %d", tc.name, span+1, maxPhaseLevels)
		}
		for _, f := range []Fused{{}, {Full: true}} {
			name := tc.name + " " + f.Name()
			got, err := f.Prepare(tc.g, Config{Layers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if took := got.(*fusedAnsatz).diag == nil; took != tc.integral {
				t.Fatalf("%s: int32 build taken = %v, want %v", name, took, tc.integral)
			}
			want, err := floatPrepare(f, tc.g, 2)
			if err != nil {
				t.Fatal(err)
			}
			sameEvaluation(t, name, got, want, gammas, betas)
		}
	}
}

// preparedBytes is the heap f.Prepare allocates for g.
func preparedBytes(t *testing.T, f Fused, g *graph.Graph) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := f.Prepare(g, Config{Layers: 3})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(a)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFusedPrepareHoldsNoFloatTable pins the integral build's memory,
// on the reduced and on the full engine: a 16-node unweighted leaf
// allocates its level index and its state and no 2^n float64 table
// (512 KiB here). The per-engine overhead that does not grow with n —
// kernel scratch per pool worker, the level tables — is measured on an
// 11-node graph and allowed on top.
func TestFusedPrepareHoldsNoFloatTable(t *testing.T) {
	small := graph.ErdosRenyi(11, 0.5, graph.Unweighted, rng.New(16))
	big := graph.ErdosRenyi(16, 0.5, graph.Unweighted, rng.New(16))
	for _, f := range []Fused{{}, {Full: true}} {
		preparedBytes(t, f, small) // start the kernel pool outside the measurement
		// The engine stores 2^k amplitudes (16 B) and level indices (4 B):
		// k = n − 1 on the Z2-reduced engine, n on the full one.
		tables := func(n int) uint64 {
			if !f.Full {
				n--
			}
			return 20 << uint(n)
		}
		overhead := int64(preparedBytes(t, f, small)) - int64(tables(11))
		const slack = 64 << 10
		limit := int64(tables(16)) + max(overhead, 0) + slack
		if got := int64(preparedBytes(t, f, big)); got > limit {
			t.Fatalf("%s: Prepare of a 16-node leaf allocated %d B, want ≤ %d B (state + index %d B, fixed overhead %d B, slack %d B)",
				f.Name(), got, limit, tables(16), overhead, slack)
		}
	}
}

// TestFusedDiagonalConcurrentFirstCall: the lazy expansion runs once
// however many goroutines ask first, and every caller gets the same
// table (run under -race).
func TestFusedDiagonalConcurrentFirstCall(t *testing.T) {
	g := graph.ErdosRenyi(10, 0.5, graph.Unweighted, rng.New(4))
	a, err := Fused{}.Prepare(g, Config{Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]float64, 4)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = a.Diagonal()
		}(i)
	}
	wg.Wait()
	want := CutTable(g, nil)
	for i, d := range tables {
		if &d[0] != &tables[0][0] || !slices.Equal(d, want) {
			t.Fatalf("caller %d got a different or wrong table", i)
		}
	}
}

// TestFusedReleaseReturnsEverything: Release empties the engine's state
// after a batch and an Evaluate, a second Release is harmless, and two
// ansätze prepared afterwards share neither a level index nor a
// statevector. Dense pools nothing, so Release leaves it usable.
func TestFusedReleaseReturnsEverything(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.5, graph.Unweighted, rng.New(8))
	ans, err := Fused{}.Prepare(g, Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gammas, betas := []float64{0.3, 0.6}, []float64{0.5, 0.2}
	if err := EvaluateBatch(ans, [][]float64{gammas, betas, gammas}, [][]float64{betas, gammas, gammas}, make([]float64, 3)); err != nil {
		t.Fatal(err)
	}
	_, st, err := ans.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	Release(ans)
	Release(ans)
	if st.Len() != 0 {
		t.Fatalf("state still holds %d amplitudes after Release", st.Len())
	}

	prep := func() *fusedAnsatz {
		t.Helper()
		b, err := Fused{}.Prepare(g, Config{Layers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return b.(*fusedAnsatz)
	}
	b, c := prep(), prep()
	if &b.cost.Idx[0] == &c.cost.Idx[0] {
		t.Fatal("two live ansätze share one level index after a double release")
	}
	_, sb, _ := b.Evaluate(gammas, betas)
	keep := sb.Clone()
	c.Evaluate(betas, gammas)
	for i := 0; i < keep.Len(); i++ {
		if sb.Amp(uint64(i)) != keep.Amp(uint64(i)) {
			t.Fatal("two live ansätze share one statevector after a double release")
		}
	}

	d, err := Dense{}.Prepare(g, Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	Release(d)
	if _, s, err := d.Evaluate(gammas, betas); err != nil || s.Len() != 1<<12 {
		t.Fatalf("Dense after Release: %v", err)
	}
}

// doubleCutsOracle is doubleCuts as it was before the level span moved
// into its own pass: the same recurrence, tracking the smallest and
// largest entry as it writes them. cutLevelsOracle is the integral
// build over it. Both are kept as the oracle of TestCutLevelsMatchesOracle.
func doubleCutsOracle[T int32 | float64](g *graph.Graph, layout []int, table []T) (first, last T) {
	n := g.N()
	node := make([]int, n) // inverse wire map: the node on each wire
	for q := range node {
		node[physOf(layout, q)] = q
	}
	first, last = table[0], table[0]
	low := make([]T, n) // low[j] = w(b, j) for the wires j below b
	for b := 0; 2<<uint(b) <= len(table); b++ {
		var deg T
		clear(low[:b])
		for _, h := range g.Neighbors(node[b]) {
			w := T(h.W)
			deg += w
			if j := physOf(layout, h.To); j < b {
				low[j] += w
			}
		}
		delta := table[1<<uint(b) : 2<<uint(b)]
		delta[0] = deg
		for j := 0; j < b; j++ {
			w2 := 2 * low[j]
			lower := delta[:1<<uint(j)]
			upper := delta[1<<uint(j) : 2<<uint(j)]
			for y, v := range lower {
				upper[y] = v - w2
			}
		}
		for x, v := range table[:1<<uint(b)] {
			v += delta[x]
			delta[x] = v
			if v < first {
				first = v
			}
			if v > last {
				last = v
			}
		}
	}
	return first, last
}

func cutLevelsOracle(g *graph.Graph, idx []int32, lo int, add float64) qsim.CostTables {
	idx[0] = int32(-lo)
	first, last := doubleCutsOracle(g, nil, idx)
	if first > 0 {
		for i := range idx {
			idx[i] -= first
		}
	}
	levels := make([]float64, last-first+1)
	values := make([]float64, len(levels))
	for j := range values {
		values[j] = float64(lo + int(first) + j)
		levels[j] = values[j] + add
	}
	return qsim.CostTables{Levels: levels, Values: values, Idx: idx}
}

// TestCutLevelsMatchesOracle requires cutLevels to build the old
// recurrence's tables exactly — every index entry, level and value —
// and CutTable its float64 table bit for bit, on random graphs of 1…16
// nodes with unweighted, signed (negative, zero and positive) and
// zero-or-one weights, over the Z2 half and the full index space.
func TestCutLevelsMatchesOracle(t *testing.T) {
	r := rng.New(50)
	weightings := []func() float64{
		func() float64 { return 1 },
		func() float64 { return float64(int(r.Uint64()%13) - 6) },
		func() float64 { return float64(int(r.Uint64()%5) - 4) }, // mostly negative
		func() float64 { return float64(r.Uint64() % 2) },
	}
	for n := 1; n <= 16; n++ {
		for wi, w := range weightings {
			g := graph.New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if r.Float64() < 0.6 {
						g.MustAddEdge(i, j, w())
					}
				}
			}
			lo, ok := integralSpan(g)
			if !ok {
				t.Fatalf("n=%d weighting %d: outside the integral span", n, wi)
			}
			for k := max(n-1, 1); k <= n; k++ {
				name := fmt.Sprintf("n=%d weighting %d k=%d", n, wi, k)
				got := cutLevels(g, make([]int32, 1<<uint(k)), lo, 0.25)
				want := cutLevelsOracle(g, make([]int32, 1<<uint(k)), lo, 0.25)
				if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Levels, want.Levels) || !slices.Equal(got.Values, want.Values) {
					t.Fatalf("%s: cutLevels %v %v, oracle %v %v", name, got.Values, got.Idx, want.Values, want.Idx)
				}
			}
			table := CutTable(g, nil)
			want := make([]float64, len(table))
			doubleCutsOracle(g, nil, want)
			for x := range table {
				if math.Float64bits(table[x]) != math.Float64bits(want[x]) {
					t.Fatalf("n=%d weighting %d: CutTable[%d] = %v, oracle %v", n, wi, x, table[x], want[x])
				}
			}
		}
	}
}
