package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"qaoa2/internal/rng"
)

func TestErdosRenyiEdgeCount(t *testing.T) {
	r := rng.New(10)
	n, p := 60, 0.3
	trials := 20
	total := 0
	for k := 0; k < trials; k++ {
		g := ErdosRenyi(n, p, Unweighted, r)
		total += g.M()
	}
	mean := float64(total) / float64(trials)
	want := p * float64(n*(n-1)) / 2
	// 5-sigma band on the binomial mean over the trials.
	sigma := math.Sqrt(want*(1-p)) / math.Sqrt(float64(trials))
	if math.Abs(mean-want) > 5*sigma {
		t.Fatalf("mean edges %v want %v (±%v)", mean, want, 5*sigma)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(20, 0.3, UniformWeights, rng.New(7))
	b := ErdosRenyi(20, 0.3, UniformWeights, rng.New(7))
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts %d vs %d", a.M(), b.M())
	}
	for i, e := range a.Edges() {
		f := b.Edges()[i]
		if e != f {
			t.Fatalf("edge %d differs: %v vs %v", i, e, f)
		}
	}
}

func TestErdosRenyiWeightsInRange(t *testing.T) {
	g := ErdosRenyi(30, 0.5, UniformWeights, rng.New(3))
	for _, e := range g.Edges() {
		if e.W < 0 || e.W >= 1 {
			t.Fatalf("weight %v outside [0,1)", e.W)
		}
	}
	u := ErdosRenyi(30, 0.5, Unweighted, rng.New(3))
	for _, e := range u.Edges() {
		if e.W != 1 {
			t.Fatalf("unweighted edge weight %v", e.W)
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	if g := ErdosRenyi(10, 0, Unweighted, rng.New(1)); g.M() != 0 {
		t.Fatalf("p=0 produced %d edges", g.M())
	}
	if g := ErdosRenyi(10, 1, Unweighted, rng.New(1)); g.M() != 45 {
		t.Fatalf("p=1 produced %d edges, want 45", g.M())
	}
}

// badProbabilities are the values no generator takes as a probability.
// NaN compares false against every draw, so unchecked it would make
// every pair an edge.
var badProbabilities = []float64{math.NaN(), -math.SmallestNonzeroFloat64, -0.5, 1.5, math.Nextafter(1, 2), math.Inf(1), math.Inf(-1)}

// requirePanic fails unless f panics.
func requirePanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}

func TestErdosRenyiPanicsOnBadP(t *testing.T) {
	for _, p := range badProbabilities {
		for _, n := range []int{0, 5} {
			requirePanic(t, fmt.Sprintf("ErdosRenyi(%d, %v)", n, p), func() { ErdosRenyi(n, p, Unweighted, rng.New(1)) })
		}
	}
	requirePanic(t, "ErdosRenyi(-1, 0.5)", func() { ErdosRenyi(-1, 0.5, Unweighted, rng.New(1)) })
}

// TestPlantedCommunitiesPanicsOnBadP: each probability is checked,
// also where no pair uses it (one community has no pair outside).
func TestPlantedCommunitiesPanicsOnBadP(t *testing.T) {
	for _, p := range badProbabilities {
		requirePanic(t, fmt.Sprintf("pIn %v", p), func() { PlantedCommunities(2, 4, p, 0.1, Unweighted, rng.New(1)) })
		requirePanic(t, fmt.Sprintf("pOut %v", p), func() { PlantedCommunities(1, 4, 0.5, p, Unweighted, rng.New(1)) })
	}
	requirePanic(t, "negative size", func() { PlantedCommunities(-2, -3, 0.5, 0.1, Unweighted, rng.New(1)) })
}

func TestCompleteAndCycle(t *testing.T) {
	if g := Complete(6); g.M() != 15 {
		t.Fatalf("K6 edges=%d", g.M())
	}
	c := Cycle(5)
	if c.M() != 5 {
		t.Fatalf("C5 edges=%d", c.M())
	}
	for i := 0; i < 5; i++ {
		if c.Degree(i) != 2 {
			t.Fatalf("C5 degree(%d)=%d", i, c.Degree(i))
		}
	}
}

func TestPath(t *testing.T) {
	p := Path(4)
	if p.M() != 3 {
		t.Fatalf("P4 edges=%d", p.M())
	}
	if p.Degree(0) != 1 || p.Degree(1) != 2 {
		t.Fatal("path degrees wrong")
	}
}

func TestBipartiteMaxCutIsAllEdges(t *testing.T) {
	g := Bipartite(3, 4)
	spins := make([]int8, 7)
	for i := 0; i < 3; i++ {
		spins[i] = 1
	}
	for i := 3; i < 7; i++ {
		spins[i] = -1
	}
	if got := g.CutValue(spins); got != 12 {
		t.Fatalf("K_{3,4} natural cut=%v want 12", got)
	}
}

func TestPlantedCommunitiesStructure(t *testing.T) {
	r := rng.New(21)
	g, membership := PlantedCommunities(3, 10, 0.8, 0.05, Unweighted, r)
	if g.N() != 30 || len(membership) != 30 {
		t.Fatalf("n=%d len(membership)=%d", g.N(), len(membership))
	}
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if membership[e.I] == membership[e.J] {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter {
		t.Fatalf("planted graph not community-like: intra=%d inter=%d", intra, inter)
	}
}

func TestRegular3(t *testing.T) {
	g := Regular3(16, rng.New(9))
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("degree(%d)=%d", v, g.Degree(v))
		}
	}
}

func TestWeightingString(t *testing.T) {
	if Unweighted.String() != "unweighted" || UniformWeights.String() != "weighted" {
		t.Fatal("Weighting String broken")
	}
	if !strings.Contains(Weighting(9).String(), "9") {
		t.Fatal("unknown weighting should include code")
	}
}

func TestIORoundTrip(t *testing.T) {
	r := rng.New(4)
	g := ErdosRenyi(25, 0.3, UniformWeights, r)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip n=%d m=%d want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for i, e := range g.Edges() {
		if back.Edges()[i] != e {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"",                      // empty
		"3\n",                   // bad header
		"2 1\n0 1\n",            // bad edge line
		"2 2\n0 1 1\n",          // fewer edges than declared
		"2 1\n0 0 1\n",          // self loop
		"2 1\n0 5 1\n",          // out of range
		"x y\n",                 // non-numeric header
		"2 1\n0 1 notanumber\n", // bad weight
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("malformed input accepted: %q", c)
		}
	}
}

func TestReadAllowsComments(t *testing.T) {
	in := "# maxcut instance\n\n3 2\n0 1 1.0\n# middle comment\n1 2 2.0\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed n=%d m=%d", g.N(), g.M())
	}
}

func BenchmarkErdosRenyi500(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ErdosRenyi(500, 0.1, Unweighted, r)
	}
}

func BenchmarkCutValue(b *testing.B) {
	r := rng.New(1)
	g := ErdosRenyi(500, 0.1, Unweighted, r)
	spins := make([]int8, 500)
	for i := range spins {
		if r.Bool() {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CutValue(spins)
	}
}

// fingerprints hashes g with FNV-1a: edges over the node count, Σ|w|
// and every edge's endpoints and weight bits, in edge order; adj over
// every node's degree and its neighbours' node, edge index and weight
// bits, in adjacency order.
func fingerprints(g *Graph) (edges, adj uint64) {
	he, ha := fnv.New64a(), fnv.New64a()
	put := func(h hash.Hash64, x uint64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, x))
	}
	put(he, uint64(g.N()))
	put(he, math.Float64bits(g.abs))
	for _, e := range g.Edges() {
		put(he, uint64(e.I))
		put(he, uint64(e.J))
		put(he, math.Float64bits(e.W))
	}
	for v := 0; v < g.N(); v++ {
		put(ha, uint64(g.Degree(v)))
		for _, h := range g.Neighbors(v) {
			put(ha, uint64(h.To))
			put(ha, uint64(h.Edge))
			put(ha, math.Float64bits(h.W))
		}
	}
	return he.Sum64(), ha.Sum64()
}

// generatorPin is one generator call.
type generatorPin struct {
	name string
	gen  func(r *rng.Rand) *Graph
}

// generatorPins lists every generator call TestGeneratorsArePinned
// checks; pinnedValues holds their values, read off the AddEdge-loop
// generators the one-pass build replaced.
func generatorPins() []generatorPin {
	var pins []generatorPin
	for _, w := range []Weighting{Unweighted, UniformWeights} {
		for _, n := range []int{0, 1, 2, 17, 1400} {
			for _, p := range []float64{0, min(1, 10/float64(n)), 0.1, 0.5, 1} {
				pins = append(pins, generatorPin{
					name: fmt.Sprintf("ErdosRenyi(%d, %v, %v)", n, p, w),
					gen:  func(r *rng.Rand) *Graph { return ErdosRenyi(n, p, w, r) },
				})
			}
		}
	}
	planted := func(k, size int, pIn, pOut float64, w Weighting) generatorPin {
		return generatorPin{
			name: fmt.Sprintf("PlantedCommunities(%d, %d, %v, %v, %v)", k, size, pIn, pOut, w),
			gen: func(r *rng.Rand) *Graph {
				g, _ := PlantedCommunities(k, size, pIn, pOut, w, r)
				return g
			},
		}
	}
	pins = append(pins,
		planted(2, 20, 0.5, 0.02, Unweighted), // leaf-heavy's instances
		planted(2, 8, 0.5, 0.02, Unweighted),  // and its smoke size
		planted(3, 10, 0.8, 0.05, UniformWeights),
		generatorPin{name: "Complete(17)", gen: func(*rng.Rand) *Graph { return Complete(17) }},
		generatorPin{name: "Complete(0)", gen: func(*rng.Rand) *Graph { return Complete(0) }},
		generatorPin{name: "Cycle(3)", gen: func(*rng.Rand) *Graph { return Cycle(3) }},
		generatorPin{name: "Cycle(11)", gen: func(*rng.Rand) *Graph { return Cycle(11) }},
		generatorPin{name: "Path(1)", gen: func(*rng.Rand) *Graph { return Path(1) }},
		generatorPin{name: "Path(9)", gen: func(*rng.Rand) *Graph { return Path(9) }},
		generatorPin{name: "Bipartite(3, 4)", gen: func(*rng.Rand) *Graph { return Bipartite(3, 4) }},
		generatorPin{name: "Bipartite(0, 5)", gen: func(*rng.Rand) *Graph { return Bipartite(0, 5) }},
	)
	return pins
}

// TestGeneratorsArePinned: every generator builds the graph it always
// built, edge for edge and neighbour for neighbour, and leaves its
// stream where it always left it, so no instance, cut or checkpoint
// downstream of a generated graph can move.
func TestGeneratorsArePinned(t *testing.T) {
	pins := generatorPins()
	if len(pins) != len(pinnedValues) {
		t.Errorf("%d pins, %d pinned values", len(pins), len(pinnedValues))
	}
	for k, pin := range pins {
		r := rng.New(uint64(k) + 1)
		edges, adj := fingerprints(pin.gen(r))
		got := [3]uint64{edges, adj, r.Uint64()}
		if k >= len(pinnedValues) || got != pinnedValues[k] {
			t.Errorf("%s: got {%#016x, %#016x, %#016x}", pin.name, got[0], got[1], got[2])
		}
	}
}

// TestErdosRenyiAllocationCeiling: generating the merge-heavy
// benchmark's instance shape allocates the edge list, the degree
// scratch, the graph's header and its two adjacency arrays. Five
// allocations; the ceiling is that plus a tenth, rounded up. Growing
// each node's adjacency by appends took thousands. The path holds no
// sync.Pool, so the count is the same under -race.
func TestErdosRenyiAllocationCeiling(t *testing.T) {
	const ceiling = 6
	r := rng.New(1)
	allocs := testing.AllocsPerRun(20, func() { ErdosRenyi(1400, 10.0/1400, Unweighted, r) })
	if allocs > ceiling {
		t.Fatalf("ER(1400, 10/n) allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// pinnedValues are the edge and adjacency fingerprints and the next
// draw of each of generatorPins, in its order.
var pinnedValues = [][3]uint64{
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0xb3f2af6d0fc710c5}, // ErdosRenyi(0, 0, unweighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x1a28690da8a8d057}, // ErdosRenyi(0, 1, unweighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0xb0cdabdae5668cc0}, // ErdosRenyi(0, 0.1, unweighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x437057a4eb7c3a13}, // ErdosRenyi(0, 0.5, unweighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x49d55178ca54cf69}, // ErdosRenyi(0, 1, unweighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0xc45c2a09b226f385}, // ErdosRenyi(1, 0, unweighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0xb358faf74ef9765a}, // ErdosRenyi(1, 1, unweighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0xd22f5048870c16bf}, // ErdosRenyi(1, 0.1, unweighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0x00a94eecf619a060}, // ErdosRenyi(1, 0.5, unweighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0xf46ddc2e692129fd}, // ErdosRenyi(1, 1, unweighted)
	{0x261c4b49872994e7, 0x88201fb960ff6465, 0x1654fe5f5c55a081}, // ErdosRenyi(2, 0, unweighted)
	{0x522c4cb234f26606, 0x26f9b4b448f500c4, 0xcf9b284852bcdc45}, // ErdosRenyi(2, 1, unweighted)
	{0x261c4b49872994e7, 0x88201fb960ff6465, 0xc865b20546892b77}, // ErdosRenyi(2, 0.1, unweighted)
	{0x261c4b49872994e7, 0x88201fb960ff6465, 0xa0418319941c5cd4}, // ErdosRenyi(2, 0.5, unweighted)
	{0x522c4cb234f26606, 0x26f9b4b448f500c4, 0x67c87ece479f773f}, // ErdosRenyi(2, 1, unweighted)
	{0x290366727f3bd034, 0xd8f706edf03243c5, 0x43dfbe52523a9a04}, // ErdosRenyi(17, 0, unweighted)
	{0xfa016332b3572b5d, 0x94aef992cb786828, 0x5b325361753b159d}, // ErdosRenyi(17, 0.5882352941176471, unweighted)
	{0x453e1dea096ffdfc, 0xd74d24dd190f275a, 0x0a59875c7270cfe1}, // ErdosRenyi(17, 0.1, unweighted)
	{0x2b56c62942ed3391, 0x7e6d166524498e75, 0x157911035e806ef1}, // ErdosRenyi(17, 0.5, unweighted)
	{0xe6124cb72c8538ad, 0xdfcce6c7ab5864d5, 0x84edb93788c260de}, // ErdosRenyi(17, 1, unweighted)
	{0x263ac09b9f0c4576, 0x2421ff1cf1c1ae25, 0x31060a438824721d}, // ErdosRenyi(1400, 0, unweighted)
	{0x3511650654e005f3, 0xa1b87ade02305149, 0x0943c6a3e48d8dbe}, // ErdosRenyi(1400, 0.007142857142857143, unweighted)
	{0x04393119bff2d79d, 0x2c808c8684df3375, 0x409be04426908ae9}, // ErdosRenyi(1400, 0.1, unweighted)
	{0x8f1d2d148dd955cb, 0x503e826a3b5dc8f8, 0xba483fc65436f2d2}, // ErdosRenyi(1400, 0.5, unweighted)
	{0x23c5a7b0e1805bd2, 0xf1721ce7cc95595d, 0x6a9fedc47b0ed0aa}, // ErdosRenyi(1400, 1, unweighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x3c3daa84235968b2}, // ErdosRenyi(0, 0, weighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x4c8dbc9213d3e295}, // ErdosRenyi(0, 1, weighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x350107a223a7816d}, // ErdosRenyi(0, 0.1, weighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0xb5a8c7fb374ecbd9}, // ErdosRenyi(0, 0.5, weighted)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x18a8df850d0098b5}, // ErdosRenyi(0, 1, weighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0xb56fc6744f1c7f18}, // ErdosRenyi(1, 0, weighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0xa24d0e59e8168e5c}, // ErdosRenyi(1, 1, weighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0x562e55bb050d2eb0}, // ErdosRenyi(1, 0.1, weighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0xb933d615cdd6569b}, // ErdosRenyi(1, 0.5, weighted)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0x550fdc7b78596512}, // ErdosRenyi(1, 1, weighted)
	{0x261c4b49872994e7, 0x88201fb960ff6465, 0xfa777f4ce26946fb}, // ErdosRenyi(2, 0, weighted)
	{0xb08483bc04312b66, 0xe0cfc260132d8334, 0xc68e01b6e0286125}, // ErdosRenyi(2, 1, weighted)
	{0xa797811660b83f3e, 0x3792c2ce0cf16edc, 0x2f462228cc02c158}, // ErdosRenyi(2, 0.1, weighted)
	{0x2094538f950ebe2e, 0xce8700bbe2d0b7f4, 0x63148cc81118d511}, // ErdosRenyi(2, 0.5, weighted)
	{0x68c5a876e03af41e, 0x949f506b49de765c, 0x085b0e236779c2b1}, // ErdosRenyi(2, 1, weighted)
	{0x290366727f3bd034, 0xd8f706edf03243c5, 0x74f57e1984c44278}, // ErdosRenyi(17, 0, weighted)
	{0xd8d7c1bf84325cac, 0x58619a733fd70612, 0x0d21bd587f747902}, // ErdosRenyi(17, 0.5882352941176471, weighted)
	{0x0aac619c34abd014, 0x2c92419eeb16178d, 0x0ccdcf7c4a25a9c5}, // ErdosRenyi(17, 0.1, weighted)
	{0x55e24180b1a9fd52, 0xa65d9f0c2ab8d44c, 0xbf12bb6f93ef4db5}, // ErdosRenyi(17, 0.5, weighted)
	{0x279e7c91dee0330f, 0x19df3c8b46a61601, 0x13731ecbdcaf808d}, // ErdosRenyi(17, 1, weighted)
	{0x263ac09b9f0c4576, 0x2421ff1cf1c1ae25, 0x65063c6302ea65c2}, // ErdosRenyi(1400, 0, weighted)
	{0x039f429927a80841, 0x097fbc7cc694397a, 0xbe3a84a82a3a009b}, // ErdosRenyi(1400, 0.007142857142857143, weighted)
	{0xd2c8f51d8c612aab, 0xd94a4288a108b45e, 0xd2704efc1f7b41a4}, // ErdosRenyi(1400, 0.1, weighted)
	{0x965c6111f6a882d3, 0x80ec318cc8f450f8, 0x7fd66622feae4820}, // ErdosRenyi(1400, 0.5, weighted)
	{0x76e3729e75e9c0a8, 0x1e569b7053fd902d, 0x4c553603eab4eb78}, // ErdosRenyi(1400, 1, weighted)
	{0x633c38e0e92eb25e, 0xac372b78eae8dbb2, 0x455ef7ee2f9fa9a0}, // PlantedCommunities(2, 20, 0.5, 0.02, unweighted)
	{0x8fd6748ef1dc4e05, 0xf6953ab0077814e3, 0x963e8d2940eb6bfb}, // PlantedCommunities(2, 8, 0.5, 0.02, unweighted)
	{0xf06a97f33365cac8, 0x7bce2eb701139dce, 0xbdf67258fd585259}, // PlantedCommunities(3, 10, 0.8, 0.05, weighted)
	{0xe6124cb72c8538ad, 0xdfcce6c7ab5864d5, 0x4b613eb91993b564}, // Complete(17)
	{0x88201fb960ff6465, 0xcbf29ce484222325, 0x628964b566e44f2b}, // Complete(0)
	{0xad4dcf7a7a8532ab, 0xcf6bbae3dab90f7f, 0x864b62820f6974c9}, // Cycle(3)
	{0x06e336a3f8114499, 0x4560d04d33866d7f, 0x3fe3f778f41befea}, // Cycle(11)
	{0x392209f14dea4c24, 0xa8c7f832281a39c5, 0x7837a21ec7071219}, // Path(1)
	{0x858ec811e78a8704, 0x318f3a3675efcd8b, 0xafeacfef9ed14b18}, // Path(9)
	{0x8430c1155ada2592, 0x9116b7d817b339f9, 0x7a284206d744a48f}, // Bipartite(3, 4)
	{0xfd29b2d10195eb20, 0x40d69e0cf0f65c45, 0xfbe0144e517e7a73}, // Bipartite(0, 5)
}

// BenchmarkErdosRenyiBench generates the merge-heavy benchmark's
// instance shape, ER(1400, 10/n).
func BenchmarkErdosRenyiBench(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ErdosRenyi(1400, 10.0/1400, Unweighted, r)
	}
}
