package qsim

import (
	"math"
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

// TestZ2MeasurementMatchesExpanded pins the strongest sampling
// guarantee the reduction offers: the reduced state's probabilities and
// Sample histograms are BIT-IDENTICAL to the expanded 2^n state's under
// the same random stream.
func TestZ2MeasurementMatchesExpanded(t *testing.T) {
	for _, nFull := range []int{2, 5, 9, 12} {
		red := z2EvaluatedState(t, nFull, uint64(nFull)*101+7)
		full := red.ExpandZ2()
		if red.Z2Full() != nFull {
			t.Fatalf("n=%d: ExpandZ2 mutated the receiver", nFull)
		}
		if full.n != nFull || full.Len() != 1<<uint(nFull) {
			t.Fatalf("n=%d: expansion has %d qubits / %d amps", nFull, full.n, full.Len())
		}

		mask := uint64(full.Len() - 1)
		for i, a := range red.amps {
			rp := scaledProb(a, z2Scale)
			for _, x := range []uint64{uint64(i), mask ^ uint64(i)} {
				if fp := full.Probability(x); rp != fp {
					t.Fatalf("n=%d: probability[%d] = %v reduced vs %v expanded", nFull, x, rp, fp)
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

// TestZ2MaxAmpIndexKeepsExpandedTies: two stored amplitudes whose |a|²
// differ in the last bit can carry the same expanded probability (the
// 1/√2 scaling rounds them together). The expansion ties them, so the
// top-1 decode must score both, on the reduced state and its expansion.
func TestZ2MaxAmpIndexKeepsExpandedTies(t *testing.T) {
	a := complex(0.006072534395455154, 0.009752416188605784)
	b := complex(0.006072534395455155, 0.009752416188605784)
	if real(a)*real(a)+imag(a)*imag(a) >= real(b)*real(b)+imag(b)*imag(b) || scaledProb(a, z2Scale) != scaledProb(b, z2Scale) {
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
	if got := s.DecodeCandidates(1, nil); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("reduced candidates %v, want [1 2]", got)
	}
	if got := s.ExpandZ2().DecodeCandidates(1, nil); !slices.Equal(got, []uint64{1, 2, 5, 6}) {
		t.Fatalf("expanded candidates %v, want [1 2 5 6]", got)
	}
	checkZ2DecodeMatchesExpanded(t, s)
}

// TestZ2TopAmpIndicesKeepsCrossPairTies: two pairs at one probability,
// so a later pair's members carry lower indices than an earlier pair's
// complement. Each stored pair counts twice toward k, so at k = 2 and 3
// the reduced decode keeps both representatives and the expanded decode
// both pairs.
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
	for _, k := range []int{2, 3} {
		if got := s.DecodeCandidates(k, nil); !slices.Equal(got, []uint64{1, 2}) {
			t.Fatalf("k=%d: reduced candidates %v, want [1 2]", k, got)
		}
		if got := full.DecodeCandidates(k, nil); !slices.Equal(got, []uint64{1, 2, 5, 6}) {
			t.Fatalf("k=%d: expanded candidates %v, want [1 2 5 6]", k, got)
		}
	}
	checkZ2DecodeMatchesExpanded(t, s)
}

// TestZ2DecodeMatchesExpanded requires evaluated reduced states and
// their expansions to decode to the same cut for every k.
func TestZ2DecodeMatchesExpanded(t *testing.T) {
	for _, nFull := range []int{2, 5, 9, 12} {
		checkZ2DecodeMatchesExpanded(t, z2EvaluatedState(t, nFull, uint64(nFull)*101+7))
	}
}

// checkZ2DecodeMatchesExpanded requires a reduced state and its
// expansion to decode to the same cut for every k: the expansion's
// candidates add complements, which tie their representatives' cuts at
// higher indices.
func checkZ2DecodeMatchesExpanded(t *testing.T, red *State) {
	t.Helper()
	full := red.ExpandZ2()
	for _, k := range []int{1, 2, 3, 1 << uint(full.n)} {
		gotX, gotV := bestSignedCut(red.DecodeCandidates(k, nil), full.n)
		wantX, wantV := bestSignedCut(full.DecodeCandidates(k, nil), full.n)
		if gotX != wantX || gotV != wantV {
			t.Fatalf("n=%d k=%d: reduced decodes %b (cut %v), expanded %b (cut %v)",
				full.n, k, gotX, gotV, wantX, wantV)
		}
	}
}

// bestSignedCut scores basis states on the complete n-node graph with
// signed weights w_uv = (7u + 3v) mod 5 − 2 and returns the best,
// ties to the lowest index, as QAOA's decoder does.
func bestSignedCut(cand []uint64, n int) (uint64, int) {
	bestX, bestV := uint64(0), math.MinInt
	for _, x := range cand {
		v := 0
		for u := range n {
			for w := u + 1; w < n; w++ {
				if x>>uint(u)&1 != x>>uint(w)&1 {
					v += (7*u+3*w)%5 - 2
				}
			}
		}
		if v > bestV || v == bestV && x < bestX {
			bestX, bestV = x, v
		}
	}
	return bestX, bestV
}
