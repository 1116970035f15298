package qsim

import (
	"fmt"
	"math"
	"testing"
)

// drainEngines empties the free list of one engine shape, so the next
// NewEngine of that shape allocates.
func drainEngines(n int, z2 bool) {
	for enginePool(n, z2).Get() != nil {
	}
}

// recycledEngine releases old after dirty has scribbled over it and
// returns the next same-shape NewEngine, retrying until that engine is
// old's (the race detector's sync.Pool drops some Puts at random).
func recycledEngine(t *testing.T, nFull int, z2 bool, cost CostTables, dirty func(*Engine)) *Engine {
	t.Helper()
	for try := 0; try < 32; try++ {
		old, err := NewEngine(nFull, z2, cost)
		if err != nil {
			t.Fatal(err)
		}
		buf := &old.amps[0]
		dirty(old)
		old.Release()
		e, err := NewEngine(nFull, z2, cost)
		if err != nil {
			t.Fatal(err)
		}
		if &e.amps[0] == buf {
			return e
		}
	}
	t.Fatal("NewEngine never took the released engine")
	return nil
}

// poison fills everything an engine reuses with NaN.
func poison(e *Engine) {
	nan := complex(math.NaN(), math.NaN())
	for i := range e.amps {
		e.amps[i] = nan
	}
	for _, sc := range e.scratch {
		for i := range sc {
			sc[i] = nan
		}
	}
	for i := range e.partials {
		e.partials[i] = math.NaN()
	}
	for i := range e.phases {
		e.phases[i] = nan
	}
}

// sameBits requires bit-identical energies and amplitudes.
func sameBits(t *testing.T, name string, got, want float64, gs, ws *State) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: energy %v, fresh engine %v", name, got, want)
	}
	if gs.Len() != ws.Len() {
		t.Fatalf("%s: %d amplitudes, fresh engine %d", name, gs.Len(), ws.Len())
	}
	for i := range ws.amps {
		a, b := gs.amps[i], ws.amps[i]
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			t.Fatalf("%s: amplitude %d = %v, fresh engine %v", name, i, a, b)
		}
	}
}

// TestReleasedEngineMatchesFresh: an engine taken back from its pool
// after its state, scratch, partials and phases were filled with NaN —
// and after it ran on a wider private pool — evaluates bit-identically
// to a freshly allocated one, on Z2 and full engines, indexed and dense
// tables, p = 0 and p = 3, single-tile and high-group sizes.
func TestReleasedEngineMatchesFresh(t *testing.T) {
	wide := newWorkerPool(4)
	defer wide.Stop()
	for _, nFull := range []int{9, 14} {
		diag, levels, idx, shift := z2Fixture(t, nFull, 31)
		for _, z2 := range []bool{false, true} {
			n := nFull
			if z2 {
				n--
			}
			for _, dense := range bothPhases {
				cost := fixtureTables(1<<uint(n), dense, diag, levels, idx, shift)
				for _, p := range []int{0, 3} {
					name := fmt.Sprintf("n=%d z2=%v dense=%v p=%d", nFull, z2, dense, p)
					gammas, betas := engineParams(nFull, p)
					drainEngines(n, z2)
					fresh, err := NewEngine(nFull, z2, cost)
					if err != nil {
						t.Fatal(err)
					}
					want := fresh.Evaluate(gammas, betas)
					reused := recycledEngine(t, nFull, z2, cost, func(e *Engine) {
						e.state.pool = wide
						e.Evaluate(betas, gammas)
						poison(e)
					})
					got := reused.Evaluate(gammas, betas)
					sameBits(t, name, got, want, reused.State(), fresh.State())
				}
			}
		}
	}
}

// TestEngineReleaseIsFinal: a released engine's state is empty and
// fails on access; a second Release does not put the engine in the
// pool twice, so two same-shape engines never share a buffer.
func TestEngineReleaseIsFinal(t *testing.T) {
	diag, levels, idx, shift := z2Fixture(t, 10, 5)
	cost := fixtureTables(1<<9, false, diag, levels, idx, shift)
	drainEngines(9, true)
	e, err := NewEngine(10, true, cost)
	if err != nil {
		t.Fatal(err)
	}
	e.Evaluate([]float64{0.4}, []float64{0.2})
	st := e.State()
	e.Release()
	e.Release()
	if st.Len() != 0 || e.State() != nil {
		t.Fatalf("released state still holds %d amplitudes", st.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("amplitude read from a released state did not panic")
			}
		}()
		st.Amp(0)
	}()
	a, err := NewEngine(10, true, cost)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(10, true, cost)
	if err != nil {
		t.Fatal(err)
	}
	if &a.amps[0] == &b.amps[0] {
		t.Fatal("two live engines share one statevector after a double release")
	}
}
