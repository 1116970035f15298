package backend

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sort"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/synth"
)

// bitsOf unpacks basis index x into n bits, bit q = qubit q.
func bitsOf(x uint64, n int) []uint8 {
	bits := make([]uint8, n)
	for q := range bits {
		bits[q] = uint8(x >> uint(q) & 1)
	}
	return bits
}

func TestCutTableMatchesGraph(t *testing.T) {
	r := rng.New(1)
	g := graph.ErdosRenyi(6, 0.5, graph.UniformWeights, r)
	table := CutTable(g, nil)
	for x := 0; x < 1<<6; x++ {
		bits := bitsOf(uint64(x), 6)
		want := g.CutValueBits(bits)
		if math.Abs(table[x]-want) > 1e-12 {
			t.Fatalf("table[%d]=%v want %v", x, table[x], want)
		}
	}
}

// cutTableByEdges is the CutTable oracle: the per-edge loop CutTable was
// before the doubling recurrence — one pass over all 2^n bit strings per
// edge.
func cutTableByEdges(g *graph.Graph, layout []int) []float64 {
	size := 1 << uint(g.N())
	table := make([]float64, size)
	for _, e := range g.Edges() {
		bi := uint64(1) << uint(physOf(layout, e.I))
		bj := uint64(1) << uint(physOf(layout, e.J))
		for x := 0; x < size; x++ {
			u := uint64(x)
			if (u&bi != 0) != (u&bj != 0) {
				table[x] += e.W
			}
		}
	}
	return table
}

// TestCutTableMatchesEdgeLoop pins the doubling recurrence to the
// per-edge oracle: exactly on unweighted and integer-weighted graphs
// (all partial sums are integers), to 1e-12 relative on real weights,
// under identity and shuffled layouts, and checks the spin-flip
// symmetry the Z2 engines rely on.
func TestCutTableMatchesEdgeLoop(t *testing.T) {
	r := rng.New(11)
	weightings := []struct {
		name  string
		w     func() float64
		exact bool
	}{
		{"unweighted", func() float64 { return 1 }, true},
		{"integer", func() float64 { return float64(int(r.Uint64()%9) - 4) }, true},
		{"real", func() float64 { return r.Float64()*2 - 0.5 }, false},
	}
	for n := 1; n <= 14; n++ {
		shuffled := make([]int, n)
		for q := range shuffled {
			shuffled[q] = q
		}
		for q := n - 1; q > 0; q-- {
			k := int(r.Uint64() % uint64(q+1))
			shuffled[q], shuffled[k] = shuffled[k], shuffled[q]
		}
		for _, wt := range weightings {
			g := graph.New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if r.Float64() < 0.45 {
						g.MustAddEdge(i, j, wt.w())
					}
				}
			}
			for _, layout := range [][]int{nil, shuffled} {
				got := CutTable(g, layout)
				want := cutTableByEdges(g, layout)
				scale := 0.0
				for _, e := range g.Edges() {
					scale += math.Abs(e.W)
				}
				tol := 0.0 // exact: every partial sum is an integer
				if !wt.exact {
					tol = 1e-12 * scale
				}
				full := len(got) - 1
				for x := range want {
					if math.Abs(got[x]-want[x]) > tol {
						t.Fatalf("n=%d %s layout=%v: table[%d] = %v, want %v (tolerance %v)", n, wt.name, layout, x, got[x], want[x], tol)
					}
					if math.Abs(got[x]-got[full^x]) > tol {
						t.Fatalf("n=%d %s: table[%d] = %v but table[~%d] = %v", n, wt.name, x, got[x], x, got[full^x])
					}
				}
			}
		}
	}
}

// TestByName resolves each spelling to its canonical Name and rejects
// an unknown name with the unknown-backend error.
func TestByName(t *testing.T) {
	good := map[string]string{
		"fused": "fused", "fused-z2": "fused", "fused-full": "fused-full",
		"dense": "dense", "noisy": "noisy",
	}
	for name, want := range good {
		be, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if be.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q", name, be.Name())
		}
	}
	checkUnknown(t, []string{"gpu"})
	if be, err := ByName(""); err != nil || be != nil {
		t.Fatalf("ByName(\"\") = %v, %v; want nil, nil", be, err)
	}
}

// TestFusedDistByName: every spelling of the retired sharded backend,
// with or without a rank suffix, gets the unknown-backend error.
func TestFusedDistByName(t *testing.T) {
	checkUnknown(t, []string{
		"fused-dist", "fused-dist:1", "fused-dist:2", "fused-dist:8",
		"fused-dist:3", "fused-dist:0", "fused-dist:-2", "fused-dist:x", "fused-dist:",
	})
}

// checkUnknown requires each name to be rejected with the unknown-backend
// error, whose "want" list names exactly the accepted spellings.
func checkUnknown(t *testing.T, names []string) {
	t.Helper()
	for _, name := range names {
		_, err := ByName(name)
		want := fmt.Sprintf("backend: unknown backend %q (want fused|fused-z2|fused-full|dense|noisy)", name)
		if err == nil || err.Error() != want {
			t.Fatalf("ByName(%q) error %v, want %q", name, err, want)
		}
	}
}

func TestDefaultRule(t *testing.T) {
	if Default(synth.Preferences{}).Name() != "fused" {
		t.Fatal("plain default is not fused")
	}
	if Default(synth.Preferences{Connectivity: synth.Linear}).Name() != "dense" {
		t.Fatal("synthesis preferences did not select dense")
	}
}

// indexLevels is the phase-table oracle: the map-based factoring the
// fused preambles used before phaseTables. It factors diag into
// (levels, idx) with diag[i] = levels[idx[i]] when the distinct-value
// count is at most maxLevels; otherwise it returns (nil, nil).
func indexLevels(diag []float64, maxLevels int) ([]float64, []int32) {
	seen := make(map[float64]int32, maxLevels)
	for _, v := range diag {
		if _, ok := seen[v]; !ok {
			if len(seen) == maxLevels {
				return nil, nil
			}
			seen[v] = 0
		}
	}
	levels := make([]float64, 0, len(seen))
	for v := range seen {
		levels = append(levels, v)
	}
	sort.Float64s(levels)
	for j, v := range levels {
		seen[v] = int32(j)
	}
	idx := make([]int32, len(diag))
	for i, v := range diag {
		idx[i] = seen[v]
	}
	return levels, idx
}

// TestIndexLevels pins phaseTables to the oracle — the distinct values
// and index of the diagonal itself, phase levels value + add, the dense
// form exactly when the level cap is exceeded — on cut tables (full and
// Z2 half length), on a table one value under and one over the cap, and
// on a real-valued diagonal.
func TestIndexLevels(t *testing.T) {
	r := rng.New(5)
	cut := CutTable(graph.ErdosRenyi(11, 0.4, graph.UniformWeights, r), nil)
	ramp := func(n int) []float64 {
		d := make([]float64, 2*n)
		for i := range d {
			d[i] = float64((i * 7) % n)
		}
		return d
	}
	noisy := make([]float64, 1<<13)
	for i := range noisy {
		noisy[i] = r.Float64()
	}
	cases := []struct {
		name string
		diag []float64
		add  float64
		n    int
	}{
		{"tiny", []float64{2, 0, 1, 1, 0, 2, 2, 2}, 0, 8},
		{"cut", cut, -7.5, len(cut)},
		{"cut-z2", cut, -7.5, len(cut) / 2},
		{"at-cap", ramp(maxPhaseLevels), 0.25, 2 * maxPhaseLevels},
		{"over-cap", ramp(maxPhaseLevels + 1), 0.25, 2 * (maxPhaseLevels + 1)},
		{"real", noisy, 1, len(noisy)},
	}
	for _, tc := range cases {
		shifted := make([]float64, tc.n)
		for i := range shifted {
			shifted[i] = tc.diag[i] + tc.add
		}
		wantValues, wantIdx := indexLevels(tc.diag[:tc.n], maxPhaseLevels)
		got := phaseTables(tc.diag, tc.add, make([]int32, tc.n))
		if wantValues == nil {
			if got.Levels != nil || got.Values != nil || got.Idx != nil ||
				!slices.Equal(got.Shift, shifted) || !slices.Equal(got.Diag, tc.diag[:tc.n]) {
				t.Fatalf("%s: over the level cap, want the dense form only", tc.name)
			}
			continue
		}
		if got.Diag != nil || got.Shift != nil {
			t.Fatalf("%s: dense form materialised on the indexed path", tc.name)
		}
		if !slices.Equal(got.Values, wantValues) || !slices.Equal(got.Idx, wantIdx) {
			t.Fatalf("%s: (values, idx) differ from the oracle (%d vs %d values)", tc.name, len(got.Values), len(wantValues))
		}
		for j, v := range got.Values {
			if got.Levels[j] != v+tc.add {
				t.Fatalf("%s: level %d = %v, want value %v + %v", tc.name, j, got.Levels[j], v, tc.add)
			}
		}
	}
}

// TestFusedLUTMatchesSincos pins the indexed phase-lookup path against
// the per-amplitude Sincos fallback on the same ansatz.
func TestFusedLUTMatchesSincos(t *testing.T) {
	r := rng.New(2)
	g := graph.ErdosRenyi(8, 0.5, graph.UniformWeights, r)
	if g.M() == 0 {
		t.Skip("degenerate instance")
	}
	a, err := Fused{}.Prepare(g, Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fa := a.(*fusedAnsatz)
	if fa.cost.Levels == nil {
		t.Fatal("expected LUT path at 8 qubits")
	}
	gammas := []float64{0.37, 0.81}
	betas := []float64{0.52, 0.13}
	eLUT, sLUT, err := fa.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	keep := sLUT.Clone()
	// Force the Sincos fallback: rebuild the engine over the dense form
	// of the same tables.
	diag := fa.Diagonal()[:len(fa.cost.Idx)]
	shift := make([]float64, len(diag))
	for i, v := range diag {
		shift[i] = v - g.TotalWeight()/2
	}
	fa.cost = qsim.CostTables{Diag: diag, Shift: shift}
	if fa.eng, err = fa.newEngine(); err != nil {
		t.Fatal(err)
	}
	eSin, sSin, err := fa.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eLUT-eSin) > 1e-12 {
		t.Fatalf("energies differ: %v vs %v", eLUT, eSin)
	}
	for i := 0; i < sSin.Len(); i++ {
		if cmplx.Abs(keep.Amp(uint64(i))-sSin.Amp(uint64(i))) > 1e-12 {
			t.Fatalf("amp %d differs: %v vs %v", i, keep.Amp(uint64(i)), sSin.Amp(uint64(i)))
		}
	}
}

func TestFusedReusesBuffer(t *testing.T) {
	g := graph.Complete(4)
	a, err := Fused{}.Prepare(g, Config{Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, s1, err := a.Evaluate([]float64{0.3}, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := a.Evaluate([]float64{0.5}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("fused backend allocated a second state buffer")
	}
	if math.Abs(s2.NormSquared()-1) > 1e-9 {
		t.Fatalf("state norm %v after buffer reuse", s2.NormSquared())
	}
}

func TestNoisyZeroModelMatchesDense(t *testing.T) {
	r := rng.New(3)
	g := graph.ErdosRenyi(7, 0.4, graph.Unweighted, r)
	if g.M() == 0 {
		t.Skip("degenerate instance")
	}
	gammas := []float64{0.4, 0.7}
	betas := []float64{0.3, 0.1}
	dAns, err := Dense{}.Prepare(g, Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	nAns, err := Noisy{Trajectories: 5}.Prepare(g, Config{Layers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	eD, _, err := dAns.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	eN, _, err := nAns.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eD-eN) > 1e-12 {
		t.Fatalf("zero-noise backend energy %v != dense %v", eN, eD)
	}
}

func TestNoisyFreshNoisePerEvaluation(t *testing.T) {
	g := graph.Complete(6)
	a, err := Noisy{
		Model:        qsim.NoiseModel{OneQubit: 0.05, TwoQubit: 0.05},
		Trajectories: 1,
		Rand:         rng.New(4),
	}.Prepare(g, Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gammas := []float64{0.4, 0.7}
	betas := []float64{0.3, 0.1}
	e1, _, err := a.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := a.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatal("consecutive noisy evaluations reused the identical trajectory stream")
	}
}

func TestPrepareRejectsBadInputs(t *testing.T) {
	g := graph.Complete(3)
	for _, be := range []Backend{Dense{}, Fused{}, Noisy{}} {
		if _, err := be.Prepare(nil, Config{Layers: 1}); err == nil {
			t.Fatalf("%s: nil graph accepted", be.Name())
		}
		if _, err := be.Prepare(g, Config{Layers: 0}); err == nil {
			t.Fatalf("%s: zero layers accepted", be.Name())
		}
		if _, err := be.Prepare(graph.New(qsim.MaxQubits+1), Config{Layers: 1}); err == nil {
			t.Fatalf("%s: oversized graph accepted", be.Name())
		}
		a, err := be.Prepare(g, Config{Layers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Evaluate([]float64{0.1}, []float64{0.2}); err == nil {
			t.Fatalf("%s: wrong parameter arity accepted", be.Name())
		}
	}
}
