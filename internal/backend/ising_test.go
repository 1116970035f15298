package backend

import (
	"math"
	"math/cmplx"
	"os"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/ising"
	"qaoa2/internal/rng"
)

// testHamiltonian builds a deterministic random Hamiltonian.
func testHamiltonian(t *testing.T, n int, seed uint64, withFields bool) *ising.Hamiltonian {
	t.Helper()
	r := rng.New(seed)
	h := ising.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.6 {
				if err := h.AddCoupling(i, j, r.Float64()*3-1.5); err != nil {
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
	h.AddOffset(r.Float64() - 0.5)
	return h
}

func testAngles(layers int, seed uint64) (gammas, betas []float64) {
	r := rng.New(seed)
	gammas = make([]float64, layers)
	betas = make([]float64, layers)
	for l := range gammas {
		gammas[l] = r.Float64()*1.2 - 0.6
		betas[l] = r.Float64()*1.2 - 0.6
	}
	return gammas, betas
}

// assertIsingParity pins amplitudes and energy of two prepared ansatz
// evaluations at 1e-12 (Z2-reduced states are expanded first).
func assertIsingParity(t *testing.T, name string, a, b Ansatz, gammas, betas []float64) {
	t.Helper()
	ea, sa, err := a.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	eb, sb, err := b.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ea-eb) > 1e-12 {
		t.Fatalf("%s: energies differ: %.15g vs %.15g", name, ea, eb)
	}
	if sa.Z2Full() != 0 {
		sa = sa.ExpandZ2()
	}
	if sb.Z2Full() != 0 {
		sb = sb.ExpandZ2()
	}
	if sa.Len() != sb.Len() {
		t.Fatalf("%s: state lengths differ: %d vs %d", name, sa.Len(), sb.Len())
	}
	worst := 0.0
	for i := 0; i < sa.Len(); i++ {
		if d := cmplx.Abs(sa.Amp(uint64(i)) - sb.Amp(uint64(i))); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		t.Fatalf("%s: max amplitude deviation %g > 1e-12", name, worst)
	}
}

func TestIsingFusedDenseParity(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n          int
		withFields bool
	}{
		{"fields-5q", 5, true},
		{"fields-8q", 8, true},
		{"symmetric-6q", 6, false},
		{"single-qubit-field", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := testHamiltonian(t, tc.n, uint64(tc.n)*13+1, tc.withFields)
			cfg := Config{Layers: 3}
			gammas, betas := testAngles(3, 99)
			dense, err := PrepareIsing(Dense{}, h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			full, err := PrepareIsing(Fused{Full: true}, h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertIsingParity(t, "fused-full vs dense", full, dense, gammas, betas)
			fused, err := PrepareIsing(Fused{}, h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertIsingParity(t, "fused vs dense", fused, dense, gammas, betas)
		})
	}
}

// TestIsingZ2Guard pins the eligibility rule: the reduced engine runs
// exactly when the Hamiltonian is Z2-symmetric (h ≡ 0); fields force
// the full engine — and either way the amplitudes match the oracle, so
// a fall-back can never be silently wrong.
func TestIsingZ2Guard(t *testing.T) {
	cfg := Config{Layers: 2}
	gammas, betas := testAngles(2, 5)

	sym := testHamiltonian(t, 6, 17, false)
	a, err := PrepareIsing(Fused{}, sym, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// QAOA2_NOZ2 legitimately disables the reduction (the CI A/B leg);
	// the positive half of the guard only applies when it is unset.
	wantZ2 := os.Getenv("QAOA2_NOZ2") == ""
	if fa := a.(*fusedAnsatz); fa.z2 != wantZ2 {
		t.Fatalf("Z2-symmetric Hamiltonian: reduced engine = %v, want %v", fa.z2, wantZ2)
	}
	_, s, err := a.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if wantZ2 && s.Z2Full() == 0 {
		t.Fatal("reduced evaluation returned a full state")
	}

	asym := sym.Clone()
	asym.AddField(3, 0.4)
	b, err := PrepareIsing(Fused{}, asym, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fb := b.(*fusedAnsatz); fb.z2 {
		t.Fatal("field-carrying Hamiltonian ran on the Z2-reduced engine")
	}
	_, sb, err := b.Evaluate(gammas, betas)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Z2Full() != 0 {
		t.Fatal("fallback evaluation returned a reduced state")
	}
	// The fallback is still correct, not just full-sized.
	oracle, err := PrepareIsing(Dense{}, asym, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIsingParity(t, "fallback vs dense", b, oracle, gammas, betas)
}

// TestIsingMaxCutDegenerateCase pins that the Ising compilation of a
// MaxCut instance reproduces the existing fused MaxCut path exactly:
// same diagonal (up to sign convention), same amplitudes.
func TestIsingMaxCutDegenerateCase(t *testing.T) {
	g := graph.New(6)
	r := rng.New(3)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if r.Float64() < 0.7 {
				g.MustAddEdge(i, j, r.Float64()*2)
			}
		}
	}
	p, err := ising.MaxCutProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Layers: 3}
	gammas, betas := testAngles(3, 31)

	viaIsing, err := PrepareIsing(Fused{}, p.H, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaMaxCut, err := Fused{}.Prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Ising diagonal D = −E must equal the cut table.
	cutDiag := viaMaxCut.Diagonal()
	for i, d := range viaIsing.Diagonal() {
		if math.Abs(d-cutDiag[i]) > 1e-12 {
			t.Fatalf("diagonal[%d] = %g, cut table %g", i, d, cutDiag[i])
		}
	}
	assertIsingParity(t, "ising vs maxcut fused", viaIsing, viaMaxCut, gammas, betas)
}

func TestPrepareIsingValidation(t *testing.T) {
	h := testHamiltonian(t, 4, 1, true)
	if _, err := PrepareIsing(Noisy{}, h, Config{Layers: 1}); err == nil {
		t.Fatal("noisy backend accepted an Ising Hamiltonian")
	}
	if _, err := PrepareIsing(Fused{}, nil, Config{Layers: 1}); err == nil {
		t.Fatal("nil Hamiltonian accepted")
	}
	if _, err := PrepareIsing(Fused{}, h, Config{Layers: 0}); err == nil {
		t.Fatal("zero layers accepted")
	}
	if _, err := PrepareIsing(Dense{}, ising.New(0), Config{Layers: 1}); err == nil {
		t.Fatal("zero-spin Hamiltonian accepted")
	}
}

// TestIsingBatchParity pins the batched evaluation path (the
// multi-start coordinator's route) against sequential evaluation.
func TestIsingBatchParity(t *testing.T) {
	h := testHamiltonian(t, 7, 77, true)
	a, err := PrepareIsing(Fused{}, h, Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	gs := make([][]float64, k)
	bs := make([][]float64, k)
	for i := range gs {
		gs[i], bs[i] = testAngles(2, uint64(i)*7+1)
	}
	batch := make([]float64, k)
	if err := EvaluateBatch(a, gs, bs, batch); err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		e, _, err := a.Evaluate(gs[i], bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e-batch[i]) > 1e-12 {
			t.Fatalf("batch[%d] = %.15g, sequential %.15g", i, batch[i], e)
		}
	}
}

// TestDenseIsingAnsatzAccessors: the dense Ising gate walk exposes its
// energy diagonal, no routed layout, and an empty synthesis report.
func TestDenseIsingAnsatzAccessors(t *testing.T) {
	h := testHamiltonian(t, 3, 5, true)
	ans, err := PrepareIsing(Dense{}, h, Config{Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	diag := ans.Diagonal()
	if len(diag) != 8 {
		t.Fatalf("diagonal length %d, want 8", len(diag))
	}
	for x, d := range diag {
		if e := h.EnergyBits(bitsOf(uint64(x), 3)); math.Abs(d+e) > 1e-12 {
			t.Fatalf("diagonal[%d] = %g, want −E = %g", x, d, -e)
		}
	}
	if l := ans.Layout(); l != nil {
		t.Fatalf("dense Ising ansatz reported a layout: %v", l)
	}
	if rep := ans.Report(); rep.Depth != 0 || rep.TwoQubitGates != 0 {
		t.Fatalf("dense Ising ansatz reported synthesis: %+v", rep)
	}
}

// TestIsingDiagonalMatchesEnergy: the Ising diagonal — the cut table of
// the reduction graph — is −E at every basis state, on 200 random
// Hamiltonians of 1 to 12 spins with fields, offsets, zero and merged
// terms. Integer weights and offsets give the oracle's float64 bits,
// the sign of a zero included (every partial sum is an exact integer);
// real ones agree to 1e-12.
func TestIsingDiagonalMatchesEnergy(t *testing.T) {
	r := rng.New(35)
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%12
		integral := trial%2 == 0
		draw := func(scale float64) float64 {
			if integral {
				return float64(r.Intn(int(2*scale)+1)) - scale
			}
			return (r.Float64()*2 - 1) * scale
		}
		h := ising.New(n)
		for k := 0; k < n*n/2+1 && n > 1; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			if err := h.AddCoupling(i, j, draw(3)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if r.Float64() < 0.6 {
				if err := h.AddField(i, draw(2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.AddOffset(draw(5))
		diag, err := maximizationDiagonal(h)
		if err != nil {
			t.Fatal(err)
		}
		if len(diag) != 1<<n {
			t.Fatalf("trial %d: %d entries for %d spins", trial, len(diag), n)
		}
		for x, d := range diag {
			want := -h.EnergyBits(bitsOf(uint64(x), n))
			if integral && math.Float64bits(d) != math.Float64bits(want) || !integral && math.Abs(d-want) > 1e-12 {
				t.Fatalf("trial %d (n=%d, integral %v): diagonal[%d] = %.17g, want −E = %.17g",
					trial, n, integral, x, d, want)
			}
		}
	}
}
