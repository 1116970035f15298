package qaoa

import (
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

// TestResultReleaseIsFinal: after Release the result's State is nil and
// the state it held is empty; a second Release does nothing, and it
// cannot hand one engine out twice: two results solved afterwards keep
// distinct statevectors.
func TestResultReleaseIsFinal(t *testing.T) {
	opts := Options{Layers: 2, MaxIters: 20}
	solve := func(seed uint64) *Result {
		t.Helper()
		g := graph.ErdosRenyi(12, 0.5, graph.Unweighted, rng.New(seed))
		res, err := SolveCut(g, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := solve(1)
	st := res.State
	res.Release()
	res.Release()
	if res.State != nil || st.Len() != 0 {
		t.Fatalf("released result: State %v, former state %d amplitudes", res.State, st.Len())
	}

	first := solve(2)
	keep := first.State.Clone()
	second := solve(3)
	for i := 0; i < keep.Len(); i++ {
		if first.State.Amp(uint64(i)) != keep.Amp(uint64(i)) {
			t.Fatal("two live results share one statevector after a double release")
		}
	}
	first.Release()
	second.Release()
}
