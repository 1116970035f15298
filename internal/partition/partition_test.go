package partition

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

func TestModularityKnownValues(t *testing.T) {
	// Two triangles joined by one edge; the natural split has
	// Q = 2·(6/26 − (7/26)²) ≈ 0.3565.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(3, 5, 1)
	g.MustAddEdge(2, 3, 1)
	q, err := Modularity(g, [][]int{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (6.0/14 - math.Pow(7.0/14, 2))
	if math.Abs(q-want) > 1e-12 {
		t.Fatalf("modularity %v want %v", q, want)
	}
	// Everything in one community: Q = Σin/2m − 1 = 0 for... compute:
	// Σin/2m = 1, Σtot/2m = 1 → Q = 1 − 1 = 0.
	q1, err := Modularity(g, [][]int{{0, 1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q1) > 1e-12 {
		t.Fatalf("single-community modularity %v want 0", q1)
	}
}

func TestModularityValidation(t *testing.T) {
	g := graph.Complete(3)
	if _, err := Modularity(g, [][]int{{0, 1}}); err == nil {
		t.Fatal("missing node accepted")
	}
	if _, err := Modularity(g, [][]int{{0, 1, 2}, {1}}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := Modularity(g, [][]int{{0, 1, 2, 5}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestModularityEdgeless(t *testing.T) {
	g := graph.New(3)
	q, err := Modularity(g, [][]int{{0}, {1}, {2}})
	if err != nil || q != 0 {
		t.Fatalf("edgeless modularity %v err=%v", q, err)
	}
}

func TestGreedyModularityFindsPlantedCommunities(t *testing.T) {
	r := rng.New(7)
	g, truth := graph.PlantedCommunities(3, 8, 0.9, 0.02, graph.Unweighted, r)
	comms := GreedyModularity(g)
	if len(comms) != 3 {
		t.Fatalf("found %d communities, want 3: %v", len(comms), comms)
	}
	// Each found community must be pure w.r.t. the planted labels.
	for _, c := range comms {
		label := truth[c[0]]
		for _, v := range c {
			if truth[v] != label {
				t.Fatalf("mixed community %v", c)
			}
		}
	}
}

func TestGreedyModularityTwoTriangles(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(3, 5, 1)
	g.MustAddEdge(2, 3, 1)
	comms := GreedyModularity(g)
	if len(comms) != 2 {
		t.Fatalf("communities: %v", comms)
	}
	if comms[0][0] != 0 || len(comms[0]) != 3 || len(comms[1]) != 3 {
		t.Fatalf("unexpected split: %v", comms)
	}
}

func TestGreedyModularityCoversAllNodesOnce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := graph.ErdosRenyi(30, 0.15, graph.UniformWeights, r)
		comms := GreedyModularity(g)
		seen := make([]bool, 30)
		for _, c := range comms {
			for _, v := range c {
				if v < 0 || v >= 30 || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyModularityImprovesOverSingletons(t *testing.T) {
	r := rng.New(9)
	g, _ := graph.PlantedCommunities(4, 6, 0.8, 0.05, graph.Unweighted, r)
	comms := GreedyModularity(g)
	q, err := Modularity(g, comms)
	if err != nil {
		t.Fatal(err)
	}
	singletons := make([][]int, g.N())
	for i := range singletons {
		singletons[i] = []int{i}
	}
	q0, err := Modularity(g, singletons)
	if err != nil {
		t.Fatal(err)
	}
	if q <= q0 {
		t.Fatalf("CNM modularity %v not above singleton %v", q, q0)
	}
}

func TestGreedyModularityEdgelessAndEmpty(t *testing.T) {
	if got := GreedyModularity(graph.New(0)); got != nil {
		t.Fatalf("empty graph: %v", got)
	}
	comms := GreedyModularity(graph.New(4))
	if len(comms) != 4 {
		t.Fatalf("edgeless graph: %v", comms)
	}
}

func TestSizeCappedRespectsCap(t *testing.T) {
	r := rng.New(11)
	for _, cap := range []int{5, 10, 16} {
		g := graph.ErdosRenyi(60, 0.1, graph.Unweighted, r)
		parts, err := SizeCapped(g, cap)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, 60)
		for _, p := range parts {
			if len(p) > cap {
				t.Fatalf("cap %d violated: part of size %d", cap, len(p))
			}
			if len(p) == 0 {
				t.Fatal("empty part")
			}
			for _, v := range p {
				if seen[v] {
					t.Fatalf("node %d duplicated", v)
				}
				seen[v] = true
			}
		}
		for v, s := range seen {
			if !s {
				t.Fatalf("node %d missing", v)
			}
		}
	}
}

func TestSizeCappedOnCompleteGraph(t *testing.T) {
	// K20 has no community structure; the capped agglomeration must
	// still produce a legal partition.
	parts, err := SizeCapped(graph.Complete(20), 6)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		if len(p) > 6 {
			t.Fatalf("oversized part %v", p)
		}
		total += len(p)
	}
	if total != 20 {
		t.Fatalf("nodes covered %d", total)
	}
}

func TestSizeCappedSmallGraphSinglePart(t *testing.T) {
	g := graph.Complete(4)
	parts, err := SizeCapped(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || len(parts[0]) != 4 {
		t.Fatalf("parts %v", parts)
	}
}

func TestSizeCappedValidation(t *testing.T) {
	if _, err := SizeCapped(graph.Complete(3), 0); err == nil {
		t.Fatal("zero cap accepted")
	}
}

func TestSizeCappedLargeSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph in -short mode")
	}
	r := rng.New(13)
	g := graph.ErdosRenyi(500, 0.1, graph.Unweighted, r)
	parts, err := SizeCapped(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		if len(p) > 16 {
			t.Fatalf("cap violated: %d", len(p))
		}
		total += len(p)
	}
	if total != 500 {
		t.Fatalf("covered %d/500", total)
	}
}

func BenchmarkGreedyModularity200(b *testing.B) {
	g := graph.ErdosRenyi(200, 0.05, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyModularity(g)
	}
}

func BenchmarkSizeCapped500(b *testing.B) {
	g := graph.ErdosRenyi(500, 0.1, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SizeCapped(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// er1200 is the graph shape of the benchmark's dag-checkpoint solve.
func er1200() *graph.Graph {
	return graph.ErdosRenyi(1200, 8.0/1200, graph.Unweighted, rng.New(1))
}

// er1400 is the graph shape of the benchmark's merge-heavy solve.
func er1400() *graph.Graph {
	return graph.ErdosRenyi(1400, 10.0/1400, graph.Unweighted, rng.New(1))
}

func BenchmarkSizeCappedER1200(b *testing.B) {
	g := er1200()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SizeCapped(g, 12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSizeCappedER1400(b *testing.B) {
	g := er1400()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SizeCapped(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// partsFNV hashes a partition: every node of every part in order as a
// little-endian uint32, each part closed by 0xffffffff.
func partsFNV(parts [][]int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range parts {
		for _, v := range p {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint32(b[:], math.MaxUint32)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSizeCappedPinnedPartitions pins the divide of the benchmark's
// merge-heavy and dag-checkpoint shapes to the partitions the capped
// agglomeration produced when it replaced the recursive divide, so a
// change to the divide's storage or order that moves any node fails
// here, not only against the oracle.
func TestSizeCappedPinnedPartitions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		budget int
		parts  int
		fnv    uint64
	}{
		{"merge-heavy ER(1400)", er1400(), 16, 101, 0xa1f4bb03cebfdb69},
		{"dag-checkpoint ER(1200)", er1200(), 12, 122, 0x5547d4c6f31f2d5d},
	} {
		parts, err := SizeCapped(tc.g, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		if got := partsFNV(parts); len(parts) != tc.parts || got != tc.fnv {
			t.Errorf("%s, budget %d: %d parts, FNV %#x; pinned %d parts, FNV %#x",
				tc.name, tc.budget, len(parts), got, tc.parts, tc.fnv)
		}
	}
}

// TestSizeCappedAllocationCeiling pins what one divide of the
// dag-checkpoint shape allocates. The lazy merge heap it replaced grew
// by one entry per neighbour per merge and took 20 MB here; a queue of
// one entry per live pair took under 4, and dropping the pairs that no
// longer fit leaves about 0.5. The malloc count pins the storage: rows
// kept as one map per node cost ~18 000 allocations here, slice rows
// with a recursion over induced sub-graphs ~1 500; one capped
// agglomeration in one workspace leaves 28, the workspace, the spare
// row space and the parts. That is the cold divide, on an empty pool. A
// warm one takes the workspace from the pool and allocates the parts:
// the node array and the part headers, plus at most 4 other mallocs and
// 16 KiB.
func TestSizeCappedAllocationCeiling(t *testing.T) {
	g := er1200()
	// No collection may empty the pool between the two divides, and one
	// P keeps the pool's per-P slot the same for both.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func() (parts [][]int, bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parts, err := SizeCapped(g, 12)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return parts, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	runtime.GC()
	runtime.GC() // two collections empty a sync.Pool
	_, cold, coldMallocs := measure()
	if cold > 1<<20 {
		t.Fatalf("cold SizeCapped(ER(1200), 12) allocates %d bytes, ceiling %d", cold, 1<<20)
	}
	if coldMallocs > 32 {
		t.Fatalf("cold SizeCapped(ER(1200), 12) makes %d allocations, ceiling %d", coldMallocs, 32)
	}
	parts, warm, warmMallocs := measure()
	partsBytes := uint64(g.N())*uint64(unsafe.Sizeof(0)) + uint64(len(parts))*uint64(unsafe.Sizeof(parts[0]))
	t.Logf("SizeCapped(ER(1200), 12): cold %d bytes, %d allocations; warm %d bytes, %d allocations; parts %d bytes",
		cold, coldMallocs, warm, warmMallocs, partsBytes)
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops a random share of what it is handed")
	}
	if warmMallocs > 2+4 || warm > partsBytes+16<<10 {
		t.Fatalf("warm SizeCapped(ER(1200), 12) makes %d allocations of %d bytes; ceiling the parts' 2 of %d bytes plus 4 of 16 KiB",
			warmMallocs, warm, partsBytes)
	}
}

// TestPooledWorkspaceReuse divides graphs that grow and shrink in turn,
// so each divide runs in the workspace the one before left in the pool,
// and requires every result to equal the lazy boxed heap's and a fresh
// workspace's. Every returned part is overwritten before the next
// divide, so a part that aliased the workspace would corrupt it. The
// same sequence then runs from 8 goroutines at once.
func TestPooledWorkspaceReuse(t *testing.T) {
	five := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}} {
		five.MustAddEdge(e[0], e[1], 1)
	}
	er1200 := er1200()
	cases := []struct {
		name  string
		g     *graph.Graph
		limit int
	}{
		{"ER(1400)/16", er1400(), 16},
		{"5 nodes/2", five, 2},
		{"ER(1200)/12", er1200, 12},
		{"ER(1200) merge graph/12", mergeGraphOf(t, er1200, 12), 12},
		{"ER(200) uncapped", graph.ErdosRenyi(200, 0.05, graph.Unweighted, rng.New(1)), 200},
	}
	want := make([][][]int, len(cases))
	for i, c := range cases {
		want[i] = greedyModularityBoxed(c.g, c.limit)
		fresh := new(cnm) // never pooled
		fresh.fit(c.g.N(), c.g.M(), c.limit)
		if got := fresh.communities(c.g); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: fresh workspace %v, lazy heap %v", c.name, got, want[i])
		}
	}
	run := func(report func(format string, args ...any)) {
		for round := 0; round < 2; round++ {
			for i, c := range cases {
				var got [][]int
				if c.limit == c.g.N() {
					got = GreedyModularity(c.g)
				} else {
					var err error
					if got, err = SizeCapped(c.g, c.limit); err != nil {
						report("%s: %v", c.name, err)
						return
					}
				}
				if !reflect.DeepEqual(got, want[i]) {
					report("round %d, %s: pooled workspace %v, want %v", round, c.name, got, want[i])
					return
				}
				for _, part := range got {
					for j := range part {
						part[j] = -1
					}
				}
			}
		}
	}
	run(t.Fatalf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(t.Errorf)
		}()
	}
	wg.Wait()
}
