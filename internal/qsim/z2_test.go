package qsim

import (
	"slices"
	"testing"

	"qaoa2/internal/rng"
)

// z2EvaluatedState runs a reduced evaluation and returns the final
// half-vector state, still marked reduced.
func z2EvaluatedState(t testing.TB, nFull int, seed uint64) *State {
	t.Helper()
	diag, levels, idx, shift := z2Fixture(t, nFull, seed)
	eng, err := NewEngine(nFull, true, fixtureTables(1<<uint(nFull-1), false, diag, levels, idx, shift))
	if err != nil {
		t.Fatal(err)
	}
	eng.Evaluate([]float64{0.37, 1.21}, []float64{0.83, 0.29})
	return eng.State()
}

// TestZ2MaxAmpIndexKeepsExpandedTies: two stored amplitudes whose |a|²
// differ in the last bit can carry the same expanded probability (the
// 1/√2 scaling rounds them together). The expansion ties them and picks
// the lower index, and so must MaxAmpIndex — QAOA's certificate and its
// decode both read it and must agree with TopAmpIndices(1).
func TestZ2MaxAmpIndexKeepsExpandedTies(t *testing.T) {
	a := complex(0.006072534395455154, 0.009752416188605784)
	b := complex(0.006072534395455155, 0.009752416188605784)
	if real(a)*real(a)+imag(a)*imag(a) >= real(b)*real(b)+imag(b)*imag(b) || z2PairProb(a) != z2PairProb(b) {
		t.Fatal("fixture lost its near-tie")
	}
	s, err := NewZ2State(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[1], s.amps[2] = a, b
	got, top, full := s.MaxAmpIndex(), s.TopAmpIndices(1)[0], s.ExpandZ2().MaxAmpIndex()
	if got != 1 || top != 1 || full != 1 {
		t.Fatalf("MaxAmpIndex %d, TopAmpIndices(1) %d, expanded argmax %d; want 1 for all", got, top, full)
	}
}

// TestZ2MeasurementMatchesExpanded pins the strongest sampling
// guarantee the reduction offers: every read-only measurement accessor
// on the reduced state is BIT-IDENTICAL to the same call on the
// expanded 2^n state — equal probabilities, equal argmax/top-k, and
// equal Sample histograms under the same random stream.
func TestZ2MeasurementMatchesExpanded(t *testing.T) {
	for _, nFull := range []int{2, 5, 9, 12} {
		red := z2EvaluatedState(t, nFull, uint64(nFull)*101+7)
		full := red.ExpandZ2()
		if red.Z2Full() != nFull {
			t.Fatalf("n=%d: ExpandZ2 mutated the receiver", nFull)
		}
		if full.N() != nFull || full.Len() != 1<<uint(nFull) {
			t.Fatalf("n=%d: expansion has %d qubits / %d amps", nFull, full.N(), full.Len())
		}

		mask := uint64(full.Len() - 1)
		for i, a := range red.amps {
			rp := z2PairProb(a)
			for _, x := range []uint64{uint64(i), mask ^ uint64(i)} {
				if fp := full.Probability(x); rp != fp {
					t.Fatalf("n=%d: probability[%d] = %v reduced vs %v expanded", nFull, x, rp, fp)
				}
			}
		}

		if got, want := red.MaxAmpIndex(), full.MaxAmpIndex(); got != want {
			t.Fatalf("n=%d: MaxAmpIndex %d reduced vs %d expanded", nFull, got, want)
		}
		for _, k := range []int{1, 3, 1 << uint(nFull)} {
			got, want := red.TopAmpIndices(k), full.TopAmpIndices(k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d indices reduced vs %d expanded", nFull, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("n=%d k=%d: top[%d] = %d reduced vs %d expanded", nFull, k, j, got[j], want[j])
				}
			}
		}

		const shots = 4096
		gotH := red.Sample(shots, rng.New(555))
		wantH := full.Sample(shots, rng.New(555))
		if len(gotH) != len(wantH) {
			t.Fatalf("n=%d: histogram has %d keys reduced vs %d expanded", nFull, len(gotH), len(wantH))
		}
		for basis, c := range wantH {
			if gotH[basis] != c {
				t.Fatalf("n=%d: histogram[%d] = %d reduced vs %d expanded", nFull, basis, gotH[basis], c)
			}
		}
	}
}

// TestZ2TopAmpIndicesKeepsCrossPairTies: the reduced selection pushes
// each representative with its complement, so a pair pushed later can
// carry a lower index at the same probability — pair 2 ties pair 1,
// and its representative 2 must displace the complement 6 of pair 1,
// and its complement 5 the complement 6. Both k must read the expanded
// state's top-k.
func TestZ2TopAmpIndicesKeepsCrossPairTies(t *testing.T) {
	s, err := NewZ2State(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.amps {
		s.amps[i] = complex(0.1*float64(i+1), 0)
	}
	s.amps[1], s.amps[2] = complex(0.6, 0.2), complex(0.6, 0.2)
	full := s.ExpandZ2()
	for _, want := range [][]uint64{{1, 2}, {1, 2, 5}} {
		k := len(want)
		got, exp := s.TopAmpIndices(k), full.TopAmpIndices(k)
		if !slices.Equal(got, want) || !slices.Equal(exp, want) {
			t.Fatalf("k=%d: reduced %v, expanded %v, want %v", k, got, exp, want)
		}
	}
}
