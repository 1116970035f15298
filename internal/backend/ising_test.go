package backend

import (
	"math"
	"math/cmplx"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/ising"
	"qaoa2/internal/rng"
)

// An Ising Hamiltonian reaches the backend only as its ancilla MaxCut
// reduction (ising.Hamiltonian.ToMaxCut). These tests pin the backends
// on the graphs that reduction produces: real and negative weights, a
// star of field edges on the ancilla, and an isolated ancilla when the
// Hamiltonian has no fields.

// reducedGraph builds a deterministic random Hamiltonian and returns
// its reduction graph.
func reducedGraph(t *testing.T, n int, seed uint64, withFields bool) *graph.Graph {
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
	g, err := h.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	return g
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

// TestIsingFusedDenseParity pins fused and fused-full to the Dense walk
// on reduction graphs: the signed real weights, the ancilla star and
// the isolated ancilla that TestFusedMatchesDense's ER graphs lack.
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
			g := reducedGraph(t, tc.n, uint64(tc.n)*13+1, tc.withFields)
			cfg := Config{Layers: 3}
			gammas, betas := testAngles(3, 99)
			dense, err := Dense{}.Prepare(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []Fused{{Full: true}, {}} {
				fused, err := f.Prepare(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertIsingParity(t, f.Name()+" vs dense", fused, dense, gammas, betas)
			}
		})
	}
}

// TestIsingZ2Guard pins that the Z2 guard is structural: a reduction
// graph is a cut table, flip-symmetric whether or not the Hamiltonian
// has fields, so both run on the reduced engine and match the Dense
// walk.
func TestIsingZ2Guard(t *testing.T) {
	cfg := Config{Layers: 2}
	gammas, betas := testAngles(2, 5)
	for _, withFields := range []bool{false, true} {
		g := reducedGraph(t, 6, 17, withFields)
		if (g.Degree(6) > 0) != withFields {
			t.Fatalf("fields %v: ancilla degree %d", withFields, g.Degree(6))
		}
		a, err := Fused{}.Prepare(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !a.(*fusedAnsatz).z2 {
			t.Fatalf("fields %v: reduction graph ran on the full engine", withFields)
		}
		_, s, err := a.Evaluate(gammas, betas)
		if err != nil {
			t.Fatal(err)
		}
		if s.Z2Full() != g.N() {
			t.Fatalf("fields %v: Z2Full = %d, want %d", withFields, s.Z2Full(), g.N())
		}
		oracle, err := Dense{}.Prepare(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertIsingParity(t, "reduced vs dense", a, oracle, gammas, betas)
	}
}

// TestIsingDiagonalMatchesEnergy: the fused diagonal of a reduction
// graph encodes the energy, −E = −(offset + W − 2·cut), at every basis
// state, the ancilla half included (an ancilla bit of 1 decodes by the
// global flip), on 200 random Hamiltonians of 1 to 12 spins with
// fields, offsets, zero and merged terms. Integer weights and offsets
// take the integral build and give the oracle's float64 bits, the sign
// of a zero included; real ones take the float build and agree to
// 1e-12.
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
		g, err := h.ToMaxCut()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Fused{}.Prepare(g, Config{Layers: 1})
		if err != nil {
			t.Fatal(err)
		}
		diag := a.Diagonal()
		if len(diag) != 1<<(n+1) {
			t.Fatalf("trial %d: %d entries for %d spins and the ancilla", trial, len(diag), n)
		}
		shift := h.Offset() + g.TotalWeight()
		for x, cut := range diag {
			data := uint64(x) & (1<<n - 1)
			if x>>n != 0 {
				data ^= 1<<n - 1
			}
			got := -(shift - 2*cut)
			want := -h.EnergyBits(bitsOf(data, n))
			if integral && math.Float64bits(got) != math.Float64bits(want) || !integral && math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d (n=%d, integral %v): diagonal[%d] gives %.17g, want −E = %.17g",
					trial, n, integral, x, got, want)
			}
		}
	}
}
