package ising

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

// randomHamiltonian builds a dense-ish random Hamiltonian with fields,
// deterministic in seed.
func randomHamiltonian(t *testing.T, n int, seed uint64, withFields bool) *Hamiltonian {
	t.Helper()
	r := rng.New(seed)
	h := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.6 {
				if err := h.AddCoupling(i, j, r.Float64()*4-2); err != nil {
					t.Fatal(err)
				}
			}
		}
		if withFields && r.Float64() < 0.7 {
			if err := h.AddField(i, r.Float64()*2-1); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.AddOffset(r.Float64()*3 - 1.5)
	return h
}

func bitsOf(x uint64, n int) []uint8 {
	bits := make([]uint8, n)
	for q := 0; q < n; q++ {
		bits[q] = uint8(x >> uint(q) & 1)
	}
	return bits
}

// energies lists E at every basis state, bit q of x giving spin q.
func energies(h *Hamiltonian) []float64 {
	out := make([]float64, 1<<uint(h.N()))
	for x := range out {
		out[x] = h.EnergyBits(bitsOf(uint64(x), h.N()))
	}
	return out
}

// flipSymmetric reports whether E(s) = E(−s) at every basis state.
func flipSymmetric(h *Hamiltonian) bool {
	table := energies(h)
	mask := len(table) - 1
	for x := range table {
		if table[x] != table[x^mask] {
			return false
		}
	}
	return true
}

func TestCouplingMergeAndValidation(t *testing.T) {
	h := New(4)
	if err := h.AddCoupling(2, 0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := h.AddCoupling(0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(h.couplings.terms) != 1 {
		t.Fatalf("duplicate coupling not merged: %v", h.couplings.terms)
	}
	if c := h.couplings.terms[0]; c.I != 0 || c.J != 2 || c.W != 2 {
		t.Fatalf("merged coupling = %+v, want {0 2 2}", c)
	}
	if err := h.AddCoupling(1, 1, 1); err == nil {
		t.Fatal("self-coupling accepted")
	}
	if err := h.AddCoupling(0, 4, 1); err == nil {
		t.Fatal("out-of-range coupling accepted")
	}
	if err := h.AddField(-1, 1); err == nil {
		t.Fatal("out-of-range field accepted")
	}
}

// TestZ2Symmetry pins that only fields break the spin-flip symmetry.
func TestZ2Symmetry(t *testing.T) {
	h := randomHamiltonian(t, 6, 3, false)
	if !flipSymmetric(h) {
		t.Fatal("field-free Hamiltonian is not Z2-symmetric")
	}
	h.AddField(2, 0.25)
	if flipSymmetric(h) {
		t.Fatal("Hamiltonian with a field is Z2-symmetric")
	}
	// Fields that cancel back to zero restore the symmetry.
	h.AddField(2, -0.25)
	if !flipSymmetric(h) {
		t.Fatal("cancelled field still breaks the symmetry")
	}
}

// TestQUBOIsingRoundTrip converts a QUBO to Ising, checks the energy
// pointwise, then goes on through the ancilla MaxCut reduction and
// back: the decoded optimal cut is a QUBO minimizer.
func TestQUBOIsingRoundTrip(t *testing.T) {
	r := rng.New(17)
	q := NewQUBO(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if r.Float64() < 0.7 {
				q.AddQuad(i, j, r.Float64()*6-3)
			}
		}
		q.AddLinear(i, r.Float64()*4-2)
	}
	q.AddOffset(0.75)

	h := q.ToIsing()
	// Pointwise identity F(x) = E(s(x)).
	for x := 0; x < 1<<6; x++ {
		bits := bitsOf(uint64(x), 6)
		if f, e := q.Value(bits), h.EnergyBits(bits); math.Abs(f-e) > 1e-12 {
			t.Fatalf("x=%d: QUBO %g vs Ising %g", x, f, e)
		}
	}

	minF := math.Inf(1)
	for x := 0; x < 1<<6; x++ {
		minF = math.Min(minF, q.Value(bitsOf(uint64(x), 6)))
	}
	g, err := h.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	cut, err := maxcut.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	spins, err := h.DecodeMaxCutSpins(cut.Spins)
	if err != nil {
		t.Fatal(err)
	}
	if f := q.Value(graph.BitsFromSpins(spins)); math.Abs(f-minF) > 1e-12 {
		t.Fatalf("round-trip QUBO value %g, want minimum %g", f, minF)
	}
}

// TestMaxCutProblemIsDegenerateCase pins MaxCut as the field-free
// corner of the Ising plane: the Hamiltonian Σ w_ij (s_i s_j − 1)/2
// has E(s) = −cut(s) pointwise, is flip-symmetric, and its ancilla
// reduction is the graph itself with couplings as edge weights and an
// isolated ancilla.
func TestMaxCutProblemIsDegenerateCase(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2.5)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 0.5)
	g.MustAddEdge(0, 4, 1.5)
	g.MustAddEdge(1, 3, 1)
	h := New(g.N())
	for _, ed := range g.Edges() {
		if err := h.AddCoupling(ed.I, ed.J, ed.W/2); err != nil {
			t.Fatal(err)
		}
		h.AddOffset(-ed.W / 2)
	}
	if !flipSymmetric(h) {
		t.Fatal("MaxCut Hamiltonian must be Z2-symmetric")
	}
	// E(s) = −cut(s) pointwise (cut values summed edge by edge).
	for x, e := range energies(h) {
		cut := 0.0
		for _, ed := range g.Edges() {
			if (x>>uint(ed.I))&1 != (x>>uint(ed.J))&1 {
				cut += ed.W
			}
		}
		if math.Abs(e+cut) > 1e-12 {
			t.Fatalf("x=%d: E = %g, want −cut = %g", x, e, -cut)
		}
	}
	// Ground state = optimal cut, and Decode reports its energy.
	spins, energy, err := h.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := maxcut.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(-energy-want.Value) > 1e-12 {
		t.Fatalf("ground energy %g, want −%g", energy, want.Value)
	}
	a, err := FromHamiltonian(h).Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Objective+want.Value) > 1e-12 || !a.Feasible {
		t.Fatalf("decoded objective %g feasible=%v, want −%g", a.Objective, a.Feasible, want.Value)
	}
	// The reduction adds nothing: no field, so no ancilla edge.
	red, err := h.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	if red.N() != g.N()+1 || red.M() != g.M() || red.Degree(g.N()) != 0 {
		t.Fatalf("reduction %v of a field-free Hamiltonian, want %v plus an isolated ancilla", red, g)
	}
	if math.Abs(2*red.TotalWeight()-g.TotalWeight()) > 1e-12 {
		t.Fatalf("reduction weight %g, want half of %g", red.TotalWeight(), g.TotalWeight())
	}
}

// bruteForceMIS finds the maximum-weight independent set by enumeration.
func bruteForceMIS(g *graph.Graph, weights []float64) float64 {
	best := 0.0
	n := g.N()
	for x := 0; x < 1<<uint(n); x++ {
		ok := true
		for _, e := range g.Edges() {
			if x>>uint(e.I)&1 == 1 && x>>uint(e.J)&1 == 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		w := 0.0
		for i := 0; i < n; i++ {
			if x>>uint(i)&1 == 1 {
				w += weights[i]
			}
		}
		if w > best {
			best = w
		}
	}
	return best
}

func TestWeightedMISGroundState(t *testing.T) {
	// A 7-vertex conflict graph with weights that make the heavier,
	// smaller set win over the larger unweighted one.
	g := graph.New(7)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {1, 4}}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1], 1)
	}
	weights := []float64{3, 1, 2, 1, 2, 1, 1.5}
	p, err := WeightedMIS(g, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flipSymmetric(p.H) {
		t.Fatal("MIS encoding needs fields; it is Z2-symmetric")
	}
	spins, energy, err := p.H.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceMIS(g, weights)
	if !a.Feasible {
		t.Fatalf("ground state decodes infeasible: selected %v", a.Selected)
	}
	if math.Abs(a.Objective-want) > 1e-12 {
		t.Fatalf("ground-state MIS weight %g, want %g (selected %v)", a.Objective, want, a.Selected)
	}
	// The encoding's minimum is −(optimal weight): penalties vanish on
	// feasible sets.
	if math.Abs(energy+want) > 1e-12 {
		t.Fatalf("ground energy %g, want %g", energy, -want)
	}
	// An adjacent pair must decode infeasible.
	bad := make([]int8, 7)
	for i := range bad {
		bad[i] = 1
	}
	bad[0], bad[1] = -1, -1 // select vertices 0 and 1, which conflict
	ab, err := p.Decode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Feasible {
		t.Fatal("adjacent selection decoded as feasible")
	}
	if rejected, err := WeightedMIS(g, weights, 2); err == nil {
		t.Fatalf("penalty below max weight accepted: %+v", rejected.Penalty)
	}
}

func TestMinVertexCoverGroundState(t *testing.T) {
	// Star K1,4 plus a pendant edge: optimal cover {center, one leaf-pair endpoint}.
	g := graph.New(6)
	for leaf := 1; leaf <= 4; leaf++ {
		g.MustAddEdge(0, leaf, 1)
	}
	g.MustAddEdge(4, 5, 1)
	p, err := MinVertexCover(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	spins, _, err := p.H.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatalf("ground-state cover %v leaves an edge uncovered", a.Selected)
	}
	if a.Objective != 2 {
		t.Fatalf("minimum cover size %g, want 2 (selected %v)", a.Objective, a.Selected)
	}
}

func TestNumberPartitionGroundState(t *testing.T) {
	nums := []float64{4, 5, 6, 7, 8}
	p, err := NumberPartition(nums)
	if err != nil {
		t.Fatal(err)
	}
	if !flipSymmetric(p.H) {
		t.Fatal("number partitioning must be Z2-symmetric")
	}
	spins, energy, err := p.H.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	// 4+5+6 = 15 vs 7+8 = 15: a perfect partition exists.
	if a.Objective != 0 {
		t.Fatalf("imbalance %g, want 0 (spins %v)", a.Objective, spins)
	}
	if math.Abs(energy) > 1e-12 {
		t.Fatalf("ground energy %g, want 0", energy)
	}
}

func TestToMaxCutReduction(t *testing.T) {
	h := randomHamiltonian(t, 6, 41, true)
	g, err := h.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 {
		t.Fatalf("reduced graph has %d nodes, want 7", g.N())
	}
	// E(s, s_a=+1) = offset + W − 2·cut pointwise.
	wTot := g.TotalWeight()
	for x := 0; x < 1<<6; x++ {
		bits := bitsOf(uint64(x), 7) // ancilla bit 0 → s_a = +1
		cut := g.CutValueBits(bits)
		e := h.EnergyBits(bits[:6])
		if math.Abs(e-(h.Offset()+wTot-2*cut)) > 1e-12 {
			t.Fatalf("x=%d: E=%g, offset+W−2cut=%g", x, e, h.Offset()+wTot-2*cut)
		}
	}
	// Brute-force the reduced MaxCut and decode: must hit the ground state.
	cut, err := maxcut.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	spins, err := h.DecodeMaxCutSpins(cut.Spins)
	if err != nil {
		t.Fatal(err)
	}
	_, wantE, err := h.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	if gotE := h.Energy(spins); math.Abs(gotE-wantE) > 1e-12 {
		t.Fatalf("decoded energy %g, want ground %g", gotE, wantE)
	}
	// Decode must pin the ancilla regardless of the cut's orientation.
	flipped := make([]int8, len(cut.Spins))
	for i, s := range cut.Spins {
		flipped[i] = -s
	}
	spins2, err := h.DecodeMaxCutSpins(flipped)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spins {
		if spins[i] != spins2[i] {
			t.Fatal("decode is not flip-invariant")
		}
	}
	if _, err := h.DecodeMaxCutSpins(cut.Spins[:3]); err == nil {
		t.Fatal("short decode accepted")
	}
}

// addEdgeReduction is ToMaxCut's graph built one AddEdge at a time:
// couplings in order, then each nonzero field to the ancilla.
func addEdgeReduction(t *testing.T, h *Hamiltonian) *graph.Graph {
	t.Helper()
	g := graph.New(h.N() + 1)
	for _, c := range h.couplings.terms {
		if c.W != 0 {
			g.MustAddEdge(c.I, c.J, c.W)
		}
	}
	for i, f := range h.fields {
		if f != 0 {
			g.MustAddEdge(i, h.N(), f)
		}
	}
	return g
}

// TestToMaxCutMatchesAddEdge: ToMaxCut builds the graph an AddEdge per
// term builds — edges, adjacency order and weights — on random
// Hamiltonians with fields, zero terms and couplings listed in both
// orders.
func TestToMaxCutMatchesAddEdge(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		n := 2 + int(seed%9)
		h := randomHamiltonian(t, n, seed, seed%3 != 0)
		r := rng.New(seed + 100)
		for k := 0; k < n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i != j {
				if err := h.AddCoupling(j, i, r.Float64()-0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := h.AddCoupling(0, 1, 0); err != nil { // a zero term stays out
			t.Fatal(err)
		}
		got, err := h.ToMaxCut()
		if err != nil {
			t.Fatal(err)
		}
		want := addEdgeReduction(t, h)
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("seed %d: edges %v, want %v", seed, got.Edges(), want.Edges())
		}
		for i := 0; i < want.N(); i++ {
			if !slices.Equal(got.Neighbors(i), want.Neighbors(i)) {
				t.Fatalf("seed %d: node %d adjacency %v, want %v", seed, i, got.Neighbors(i), want.Neighbors(i))
			}
		}
	}
}

// TestToMaxCutStarInLinearTime: every coupling of a star shares its
// centre, which made an AddEdge-per-term reduction quadratic.
func TestToMaxCutStarInLinearTime(t *testing.T) {
	const m = 1 << 18
	h := New(m + 1)
	for j := 1; j <= m; j++ {
		if err := h.AddCoupling(0, j, 1); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	g, err := h.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("reducing a %d-coupling star took %v", m, took)
	}
	if g.Degree(0) != m {
		t.Fatalf("centre degree %d, want %d", g.Degree(0), m)
	}
}

// TestToMaxCutRefusesNonFiniteSums: a coupling or field whose
// accumulated weight overflows has no reduction graph.
func TestToMaxCutRefusesNonFiniteSums(t *testing.T) {
	couplings := New(3)
	for range 2 {
		if err := couplings.AddCoupling(0, 1, 1e308); err != nil {
			t.Fatal(err)
		}
	}
	fields := New(3)
	for range 2 {
		if err := fields.AddField(2, -1e308); err != nil {
			t.Fatal(err)
		}
	}
	for name, h := range map[string]*Hamiltonian{"coupling": couplings, "field": fields} {
		_, err := h.ToMaxCut()
		var re *graph.RefusedError
		if !errors.As(err, &re) {
			t.Errorf("%s summing to -/+Inf: error %v, want a *graph.RefusedError", name, err)
		}
	}
}

// TestAnnealFindsGroundState: the classical annealing baseline of an
// Ising workload is annealing its reduction graph (what the anneal
// solver does on every leaf); decoded, it reaches the ground state of
// a field-carrying Hamiltonian.
func TestAnnealFindsGroundState(t *testing.T) {
	h := randomHamiltonian(t, 10, 7, true)
	_, wantE, err := h.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	g, err := h.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	cut := maxcut.SimulatedAnnealing(g, maxcut.AnnealOptions{Sweeps: 400}, rng.New(5))
	spins, err := h.DecodeMaxCutSpins(cut.Spins)
	if err != nil {
		t.Fatal(err)
	}
	e, fromCut := h.Energy(spins), h.Offset()+g.TotalWeight()-2*cut.Value
	if math.Abs(e-fromCut) > 1e-9 {
		t.Fatalf("decoded energy %g, offset + W − 2·cut = %g", e, fromCut)
	}
	if e > wantE+1e-9 {
		t.Fatalf("anneal energy %g, ground %g", e, wantE)
	}
}

func TestGroundStateCap(t *testing.T) {
	if _, _, err := New(MaxExactSpins + 1).GroundState(); err == nil {
		t.Fatal("oversized brute force accepted")
	}
}

func TestFromHamiltonianAndAccessors(t *testing.T) {
	h := New(3)
	if err := h.AddCoupling(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(2, -0.5); err != nil {
		t.Fatal(err)
	}
	h.AddOffset(2)
	if f := h.fields; len(f) != 3 || f[2] != -0.5 {
		t.Fatalf("fields = %v", f)
	}
	p := FromHamiltonian(h)
	if p.Kind != KindIsing || p.H != h {
		t.Fatalf("FromHamiltonian wrapped %q %p", p.Kind, p.H)
	}
	spins := []int8{1, -1, 1}
	a, err := p.Decode(spins)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible || a.Objective != h.Energy(spins) || a.Energy != a.Objective {
		t.Fatalf("decoded %+v, want energy %g", a, h.Energy(spins))
	}
}
