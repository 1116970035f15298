package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"qaoa2/internal/rng"
)

func TestNewAndCounts(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("fresh graph N=%d M=%d", g.N(), g.M())
	}
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 1)
	if g.M() != 2 {
		t.Fatalf("M=%d want 2", g.M())
	}
	if g.TotalWeight() != 3.5 {
		t.Fatalf("TotalWeight=%v", g.TotalWeight())
	}
}

func TestAddEdgeRejectsSelfLoopAndRange(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

// TestAddEdgeRejectsNonFinite: a NaN or infinite weight, and a merge
// whose sum overflows, are refused and leave the graph as it was.
func TestAddEdgeRejectsNonFinite(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, math.MaxFloat64)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := g.AddEdge(1, 2, w); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if err := g.AddEdge(1, 0, math.MaxFloat64); err == nil {
		t.Fatal("overflowing merge accepted")
	}
	if w, _ := g.Weight(0, 1); g.M() != 1 || w != math.MaxFloat64 || g.Neighbors(1)[0].W != math.MaxFloat64 {
		t.Fatalf("refused edges changed the graph: M=%d w(0,1)=%v", g.M(), w)
	}
}

// TestGraphRefusesOverflowingAbsoluteWeights: finite weights whose
// absolute values sum past float64's range bound no cut value, and no
// way of building a graph accepts them — AddEdge (leaving the graph as
// it was), FromEdges and Read (with a *RefusedError), Contract — while
// the same weights summing to float64's largest value are accepted.
func TestGraphRefusesOverflowingAbsoluteWeights(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1e308)
	if err := g.AddEdge(1, 2, -1e308); err == nil || !strings.Contains(err.Error(), "must be finite") {
		t.Fatalf("AddEdge past the range: error %v", err)
	}
	if g.M() != 1 || len(g.Neighbors(2)) != 0 || g.abs != 1e308 {
		t.Fatalf("refused edge changed the graph: M=%d Σ|w|=%v", g.M(), g.abs)
	}
	g.MustAddEdge(1, 2, math.MaxFloat64-1e308) // exactly at the limit
	var re *RefusedError
	if _, err := FromEdges(3, []Edge{{0, 1, 1e308}, {2, 1, -1e308}}, self); !errors.As(err, &re) {
		t.Fatalf("FromEdges past the range: error %v, want a *RefusedError", err)
	}
	if _, err := Read(strings.NewReader("3 2\n0 1 1e308\n1 2 1e308\n")); !errors.As(err, &re) {
		t.Fatalf("Read past the range: error %v, want a *RefusedError", err)
	}
	// A 4-cycle of a quarter of the range per edge, contracted to one
	// pair of groups by a weight hook that doubles every weight.
	c := New(4)
	for v := range 4 {
		c.MustAddEdge(v, (v+1)%4, math.MaxFloat64/4)
	}
	if _, err := c.Contract([]int{0, 1, 0, 1}, 2, func(e Edge) float64 { return 2 * e.W }); err == nil {
		t.Fatal("Contract past the range accepted")
	}
}

// TestAbsoluteWeightsSumStoredEdges: Σ|w| is summed over the merged
// weights the graph stores, not over the weights as added. Listed one
// by one, 7e291 and 7e291 both round away against float64's largest
// value, yet merged into one edge of 1.4e292 they take the sum past
// the range: AddEdge refuses the second listing, Read and FromEdges
// refuse the file, and Clone copies what was accepted without
// re-adding (and re-checking) a single edge.
func TestAbsoluteWeightsSumStoredEdges(t *testing.T) {
	const big = 7e291
	g := New(3)
	g.MustAddEdge(0, 1, math.MaxFloat64)
	g.MustAddEdge(1, 2, big)
	if err := g.AddEdge(2, 1, big); err == nil || !strings.Contains(err.Error(), "must be finite") {
		t.Fatalf("merge past the range: error %v", err)
	}
	if w, _ := g.Weight(1, 2); w != big || g.abs != math.MaxFloat64 {
		t.Fatalf("refused merge changed the graph: w(1,2)=%v Σ|w|=%v", w, g.abs)
	}
	requireSameGraph(t, "rebuilt", fromEdges(g.n, slices.Clone(g.edges), g.abs, make([]int, g.n)), g)
	text := fmt.Sprintf("3 3\n0 1 %v\n1 2 %v\n1 2 %v\n", math.MaxFloat64, big, big)
	var re *RefusedError
	if _, err := Read(strings.NewReader(text)); !errors.As(err, &re) {
		t.Fatalf("Read: error %v, want a *RefusedError", err)
	}
	if _, err := FromEdges(3, []Edge{{0, 1, math.MaxFloat64}, {1, 2, big}, {2, 1, big}}, self); !errors.As(err, &re) {
		t.Fatalf("FromEdges: error %v, want a *RefusedError", err)
	}
}

func TestAddEdgeMergesParallel(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 2) // reversed order, same edge
	if g.M() != 1 {
		t.Fatalf("parallel edges not merged: M=%d", g.M())
	}
	w, ok := g.Weight(0, 1)
	if !ok || w != 3 {
		t.Fatalf("merged weight=%v ok=%v", w, ok)
	}
	// Adjacency caches must see the merged weight too.
	if g.Neighbors(0)[0].W != 3 || g.Neighbors(1)[0].W != 3 {
		t.Fatal("adjacency weight not refreshed after merge")
	}
}

func TestWeightLookup(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 2, 1.5)
	if w, ok := g.Weight(2, 0); !ok || w != 1.5 {
		t.Fatalf("Weight(2,0)=%v,%v", w, ok)
	}
	if _, ok := g.Weight(1, 3); ok {
		t.Fatal("nonexistent edge reported present")
	}
	if _, ok := g.Weight(1, 1); ok {
		t.Fatal("self weight reported present")
	}
}

func TestCutValueTriangle(t *testing.T) {
	g := Complete(3)
	// Any bipartition of a unit triangle cuts exactly 2 edges.
	for _, spins := range [][]int8{{1, 1, -1}, {1, -1, 1}, {-1, 1, 1}, {-1, -1, 1}} {
		if got := g.CutValue(spins); got != 2 {
			t.Fatalf("triangle cut for %v = %v want 2", spins, got)
		}
	}
	if got := g.CutValue([]int8{1, 1, 1}); got != 0 {
		t.Fatalf("uncut triangle = %v", got)
	}
}

func TestCutValueBitsMatchesSpins(t *testing.T) {
	r := rng.New(1)
	g := ErdosRenyi(12, 0.4, UniformWeights, r)
	bits := make([]uint8, 12)
	for i := range bits {
		bits[i] = uint8(r.Intn(2))
	}
	spins := SpinsFromBits(bits)
	if a, b := g.CutValueBits(bits), g.CutValue(spins); math.Abs(a-b) > 1e-12 {
		t.Fatalf("bit cut %v != spin cut %v", a, b)
	}
}

func TestSpinBitRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		bits := make([]uint8, len(raw))
		for i, b := range raw {
			if b {
				bits[i] = 1
			}
		}
		back := BitsFromSpins(SpinsFromBits(bits))
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCutComplementInvariance(t *testing.T) {
	// Flipping every spin leaves the cut unchanged.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := ErdosRenyi(10, 0.5, UniformWeights, r)
		spins := make([]int8, 10)
		for i := range spins {
			if r.Bool() {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		flipped := make([]int8, 10)
		for i := range spins {
			flipped[i] = -spins[i]
		}
		return math.Abs(g.CutValue(spins)-g.CutValue(flipped)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLaplacianProperties(t *testing.T) {
	r := rng.New(2)
	g := ErdosRenyi(8, 0.5, UniformWeights, r)
	l := g.Laplacian()
	// Row sums of a Laplacian are zero.
	for i := 0; i < 8; i++ {
		s := 0.0
		for j := 0; j < 8; j++ {
			s += l.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("Laplacian row %d sums to %v", i, s)
		}
	}
	// xᵀLx/4 equals the cut value for ±1 vectors.
	spins := []int8{1, -1, 1, 1, -1, -1, 1, -1}
	x := make([]float64, 8)
	for i, s := range spins {
		x[i] = float64(s)
	}
	y := make([]float64, 8)
	l.MatVec(x, y)
	quad := 0.0
	for i := range x {
		quad += x[i] * y[i]
	}
	if math.Abs(quad/4-g.CutValue(spins)) > 1e-9 {
		t.Fatalf("xᵀLx/4=%v cut=%v", quad/4, g.CutValue(spins))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 4, 4)
	g.MustAddEdge(0, 4, 5)
	sub, mapping, err := g.InducedSubgraph([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("subgraph n=%d m=%d", sub.N(), sub.M())
	}
	if w, ok := sub.Weight(0, 1); !ok || w != 2 {
		t.Fatalf("subgraph edge (1,2) weight=%v ok=%v", w, ok)
	}
	if w, ok := sub.Weight(1, 2); !ok || w != 3 {
		t.Fatalf("subgraph edge (2,3) weight=%v ok=%v", w, ok)
	}
	if len(mapping) != 3 || mapping[0] != 1 || mapping[2] != 3 {
		t.Fatalf("mapping=%v", mapping)
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := New(3)
	if _, _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{0, 7}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestContractSumsCrossEdges(t *testing.T) {
	// Two groups {0,1} and {2,3} with cross edges 1-2 (w=2) and 0-3 (w=3).
	g := New(4)
	g.MustAddEdge(0, 1, 10) // internal, dropped
	g.MustAddEdge(2, 3, 20) // internal, dropped
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(0, 3, 3)
	q, err := g.Contract([]int{0, 0, 1, 1}, 2, func(e Edge) float64 { return e.W })
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != 2 || q.M() != 1 {
		t.Fatalf("quotient n=%d m=%d", q.N(), q.M())
	}
	if w, _ := q.Weight(0, 1); w != 5 {
		t.Fatalf("quotient weight=%v want 5", w)
	}
}

func TestContractSignHook(t *testing.T) {
	// The QAOA² merge flips the sign of cut edges; verify the hook.
	g := New(4)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 3, 1)
	cut := map[[2]int]bool{{0, 2}: true} // edge 0-2 currently cut
	q, err := g.Contract([]int{0, 0, 1, 1}, 2, func(e Edge) float64 {
		if cut[[2]int{e.I, e.J}] {
			return -e.W
		}
		return e.W
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := q.Weight(0, 1); w != 0 {
		t.Fatalf("signed quotient weight=%v want 0 (+1 and -1 cancel)", w)
	}
	if q.M() != 1 {
		t.Fatal("cancelled edge should still exist to preserve connectivity")
	}
}

func TestContractValidation(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 1)
	if _, err := g.Contract([]int{0}, 1, func(e Edge) float64 { return e.W }); err == nil {
		t.Fatal("short groupOf accepted")
	}
	if _, err := g.Contract([]int{0, 5}, 2, func(e Edge) float64 { return e.W }); err == nil {
		t.Fatal("invalid group id accepted")
	}
	if _, err := g.Contract([]int{0, 1}, 2, func(Edge) float64 { return math.NaN() }); err == nil {
		t.Fatal("NaN merged weight accepted")
	}
	big := New(4)
	big.MustAddEdge(0, 2, math.MaxFloat64/2)
	big.MustAddEdge(1, 3, math.MaxFloat64/2)
	if _, err := big.Contract([]int{0, 0, 1, 1}, 2, func(e Edge) float64 { return 2 * e.W }); err == nil {
		t.Fatal("overflowing merged weight accepted")
	}
}

// TestContractKeepsOnlyItsEdges requires the quotient's edge slice to
// be exactly as long as its edge count: a QAOA² stage keeps its merge
// graph for the whole solve, and a slice with the parent's capacity
// would keep room for every parent edge alive with it.
func TestContractKeepsOnlyItsEdges(t *testing.T) {
	g, parts, groupOf := er1200Parts()
	q, err := g.Contract(groupOf, len(parts), func(e Edge) float64 { return e.W })
	if err != nil {
		t.Fatal(err)
	}
	if edges := q.Edges(); cap(edges) != len(edges) {
		t.Fatalf("quotient of %d edges holds an edge slice of capacity %d", len(edges), cap(edges))
	}
}

func TestIntegralWeights(t *testing.T) {
	pair := func(ws ...float64) *Graph {
		g := New(len(ws) + 1)
		for i, w := range ws {
			g.MustAddEdge(i, i+1, w)
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		want bool
	}{
		{"edgeless", New(3), true},
		{"unit", pair(1, 1, 1), true},
		{"signed integers", pair(-3, 4, 0), true},
		{"half", pair(1, 0.5), false},
		{"sum at float64's limit", pair(math.MaxFloat64/2, -math.MaxFloat64/2), false},
		{"sum below 2^53", pair(1<<52, 1<<52-1), true},
		{"sum at 2^53", pair(1<<52, -(1 << 52)), false},
	} {
		if got := tc.g.IntegralWeights(); got != tc.want {
			t.Errorf("%s: IntegralWeights = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDensity(t *testing.T) {
	if d := Complete(5).Density(); math.Abs(d-1) > 1e-12 {
		t.Fatalf("K5 density=%v", d)
	}
	if d := New(5).Density(); d != 0 {
		t.Fatalf("empty density=%v", d)
	}
	if d := New(1).Density(); d != 0 {
		t.Fatalf("single-node density=%v", d)
	}
}

func TestCutValuePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong assignment length")
		}
	}()
	Complete(3).CutValue([]int8{1, 1})
}

// TestAccessors covers the log helper surface: weighted degrees and
// the String summary.
func TestAccessors(t *testing.T) {
	g := New(3)
	MustAdd := g.MustAddEdge
	MustAdd(0, 1, 2)
	MustAdd(1, 2, 0.5)
	if d := g.WeightedDegree(1); math.Abs(d-2.5) > 1e-15 {
		t.Fatalf("WeightedDegree(1) = %g, want 2.5", d)
	}
	if d := g.WeightedDegree(2); math.Abs(d-0.5) > 1e-15 {
		t.Fatalf("WeightedDegree(2) = %g, want 0.5", d)
	}
	if s := g.String(); s != "graph{n=3 m=2 w=2.500}" {
		t.Fatalf("String() = %q", s)
	}
}

// inducedSubgraphEdgeScan is InducedSubgraph as it stood before the
// neighbour-driven walk: every parent edge tested against the node map,
// survivors added with AddEdge. Kept as the reference for edge order,
// adjacency order and weights.
func inducedSubgraphEdgeScan(g *Graph, nodes []int) (*Graph, []int, error) {
	inv := make(map[int]int, len(nodes))
	for k, v := range nodes {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("graph: node %d out of range", v)
		}
		if _, dup := inv[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in subgraph spec", v)
		}
		inv[v] = k
	}
	sub := New(len(nodes))
	for _, e := range g.edges {
		i, iok := inv[e.I]
		j, jok := inv[e.J]
		if iok && jok {
			sub.MustAddEdge(i, j, e.W)
		}
	}
	mapping := make([]int, len(nodes))
	copy(mapping, nodes)
	return sub, mapping, nil
}

// contractMapAccumulate is Contract as it stood on a map keyed by group
// pair with the keys sorted afterwards, kept as the reference for edge
// order and for the bits of every accumulated weight.
func contractMapAccumulate(g *Graph, groupOf []int, numGroups int, weight func(e Edge) float64) (*Graph, error) {
	if len(groupOf) != g.n {
		return nil, fmt.Errorf("graph: groupOf length %d != n %d", len(groupOf), g.n)
	}
	for v, gr := range groupOf {
		if gr < 0 || gr >= numGroups {
			return nil, fmt.Errorf("graph: node %d assigned to invalid group %d", v, gr)
		}
	}
	type key struct{ a, b int }
	acc := make(map[key]float64)
	for _, e := range g.edges {
		gi, gj := groupOf[e.I], groupOf[e.J]
		if gi == gj {
			continue
		}
		if gi > gj {
			gi, gj = gj, gi
		}
		acc[key{gi, gj}] += weight(e)
	}
	q := New(numGroups)
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(x, y int) bool {
		if keys[x].a != keys[y].a {
			return keys[x].a < keys[y].a
		}
		return keys[x].b < keys[y].b
	})
	for _, k := range keys {
		q.MustAddEdge(k.a, k.b, acc[k])
	}
	return q, nil
}

// requireSameGraph fails unless got and want have the same node count,
// the same Edges() (order, endpoints, weight bits) and the same
// Neighbors(v) order for every node.
func requireSameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	if got.abs != absSum(got.Edges()) || want.abs != absSum(want.Edges()) {
		t.Fatalf("%s: Σ|w| kept as %v and %v, edges sum to %v and %v",
			name, got.abs, want.abs, absSum(got.Edges()), absSum(want.Edges()))
	}
	for k, w := range want.Edges() {
		e := got.Edges()[k]
		if e.I != w.I || e.J != w.J || math.Float64bits(e.W) != math.Float64bits(w.W) {
			t.Fatalf("%s: edge %d is %+v, want %+v", name, k, e, w)
		}
	}
	for v := 0; v < want.N(); v++ {
		gh, wh := got.Neighbors(v), want.Neighbors(v)
		if len(gh) != len(wh) {
			t.Fatalf("%s: node %d has %d neighbours, want %d", name, v, len(gh), len(wh))
		}
		for k, w := range wh {
			h := gh[k]
			if h.To != w.To || h.Edge != w.Edge || math.Float64bits(h.W) != math.Float64bits(w.W) {
				t.Fatalf("%s: node %d neighbour %d is %+v, want %+v", name, v, k, h, w)
			}
		}
	}
}

// signedCopy returns g with every weight replaced by a draw from
// (-1, 1), so sums of them round differently in different orders.
func signedCopy(g *Graph, r *rng.Rand) *Graph {
	s := New(g.N())
	for _, e := range g.Edges() {
		s.MustAddEdge(e.I, e.J, 2*r.Float64()-1)
	}
	return s
}

func TestInducedSubgraphMatchesEdgeScan(t *testing.T) {
	r := rng.New(11)
	er := ErdosRenyi(300, 0.03, Unweighted, r)
	graphs := map[string]*Graph{
		"unweighted": er,
		"weighted":   ErdosRenyi(300, 0.03, UniformWeights, r),
		"signed":     signedCopy(er, r),
		"dense":      signedCopy(Complete(24), r),
		"edgeless":   New(9),
	}
	for name, g := range graphs {
		check := func(kind string, nodes []int) {
			t.Helper()
			got, gotMap, err := g.InducedSubgraph(nodes)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			want, wantMap, err := inducedSubgraphEdgeScan(g, nodes)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, name+" "+kind, got, want)
			if !slices.Equal(gotMap, wantMap) || !slices.Equal(gotMap, nodes) {
				t.Fatalf("%s %s: mapping %v, want %v", name, kind, gotMap, wantMap)
			}
		}
		n := g.N()
		check("empty", nil)
		check("singleton", []int{n / 2})
		check("whole graph", r.Perm(n))
		whole := make([]int, n)
		for i := range whole {
			whole[i] = i
		}
		check("whole graph in order", whole)
		for trial := 0; trial < 40; trial++ {
			shuffled := r.Perm(n)[:1+r.Intn(n)]
			check("shuffled subset", shuffled)
			sorted := slices.Clone(shuffled)
			sort.Ints(sorted)
			check("sorted subset", sorted)
		}
	}
}

// TestInducedSubgraphAllocationCeiling: cutting a 16-node part out of
// the merge-heavy benchmark's graph shape allocates the sub-graph's
// header, edges and two adjacency arrays, and one scratch buffer; the
// mapping is the caller's node list. Five allocations; the ceiling is
// that plus a tenth, rounded up, as toolchains differ by a few.
func TestInducedSubgraphAllocationCeiling(t *testing.T) {
	g := ErdosRenyi(1400, 10.0/1400, Unweighted, rng.New(1))
	// The first 16 nodes a breadth-first walk from node 0 reaches: a
	// connected part, as the partitioner cuts them.
	part := []int{0}
	seen := map[int]bool{0: true}
	for k := 0; len(part) < 16; k++ {
		for _, h := range g.Neighbors(part[k]) {
			if !seen[h.To] && len(part) < 16 {
				seen[h.To] = true
				part = append(part, h.To)
			}
		}
	}
	sub, _, err := g.InducedSubgraph(part)
	if err != nil || sub.M() < len(part)-1 {
		t.Fatalf("part %v: %v, %v", part, sub, err)
	}
	const ceiling = 6
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := g.InducedSubgraph(part); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("a 16-node part allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestInducedSubgraphGrowsLikeAnyGraph guards the pre-sized adjacency:
// the rows are cut from one array, so an edge added to the sub-graph
// afterwards must grow its two rows without writing into their
// neighbours'.
func TestInducedSubgraphGrowsLikeAnyGraph(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 4}
	got, _, err := Path(6).InducedSubgraph(nodes)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := inducedSubgraphEdgeScan(Path(6), nodes)
	for _, g := range []*Graph{got, want} {
		g.MustAddEdge(0, 3, 7)
		g.MustAddEdge(1, 2, 0.5) // merges into the existing edge
	}
	requireSameGraph(t, "after AddEdge", got, want)
}

func TestContractMatchesMapAccumulate(t *testing.T) {
	r := rng.New(12)
	er := ErdosRenyi(400, 0.04, Unweighted, r)
	graphs := map[string]*Graph{
		"unweighted": er,
		"weighted":   ErdosRenyi(400, 0.04, UniformWeights, r),
		"signed":     signedCopy(er, r),
		"edgeless":   New(7),
	}
	for name, g := range graphs {
		for _, groups := range []int{1, 2, 7, 40, g.N()} {
			groupOf := make([]int, g.N())
			spins := make([]int8, g.N())
			for v := range groupOf {
				groupOf[v] = r.Intn(groups)
				spins[v] = int8(2*r.Intn(2) - 1)
			}
			hooks := map[string]func(e Edge) float64{
				"plain": func(e Edge) float64 { return e.W },
				// The QAOA² merge hook: unit weights then cancel exactly.
				"signed by cut": func(e Edge) float64 {
					if spins[e.I] != spins[e.J] {
						return -e.W
					}
					return e.W
				},
			}
			for hook, weight := range hooks {
				got, err := g.Contract(groupOf, groups, weight)
				if err != nil {
					t.Fatal(err)
				}
				want, err := contractMapAccumulate(g, groupOf, groups, weight)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGraph(t, fmt.Sprintf("%s, %d groups, %s", name, groups, hook), got, want)
			}
		}
	}
}

// er1200Parts stands in for the divide step of the benchmark's
// dag-checkpoint solve without importing the partitioner: ER(1200, 8/n)
// cut into 12-node parts along a breadth-first order, so parts keep
// edges inside as communities do.
func er1200Parts() (*Graph, [][]int, []int) {
	g := ErdosRenyi(1200, 8.0/1200, Unweighted, rng.New(1))
	var order []int
	seen := make([]bool, g.N())
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			order = append(order, queue[0])
			for _, h := range g.Neighbors(queue[0]) {
				if !seen[h.To] {
					seen[h.To] = true
					queue = append(queue, h.To)
				}
			}
		}
	}
	groupOf := make([]int, g.N())
	var parts [][]int
	for lo := 0; lo < len(order); lo += 12 {
		part := slices.Clone(order[lo : lo+12])
		sort.Ints(part)
		for _, v := range part {
			groupOf[v] = len(parts)
		}
		parts = append(parts, part)
	}
	return g, parts, groupOf
}

func BenchmarkInducedSubgraphParts(b *testing.B) {
	g, parts, _ := er1200Parts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, part := range parts {
			if _, _, err := g.InducedSubgraph(part); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkContractER1200(b *testing.B) {
	g, parts, groupOf := er1200Parts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Contract(groupOf, len(parts), func(e Edge) float64 { return e.W }); err != nil {
			b.Fatal(err)
		}
	}
}
