package solver

import (
	"math"
	"reflect"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
	"qaoa2/internal/sdp"
)

// oracleBestOf is best-of as it was before certificates existed: every
// member runs, whatever any of them proved. The short-circuit is
// correct exactly when it cannot be told apart from this loop.
type oracleBestOf struct {
	Solvers []Solver
}

func (s oracleBestOf) Name() string { return "best" }

func (s oracleBestOf) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := s.SolveSubAttributed(g, r)
	return cut, err
}

func (s oracleBestOf) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, Report, error) {
	var best maxcut.Cut
	var rep Report
	found := false
	for i, inner := range s.Solvers {
		cut, innerRep, err := SolveAttributed(inner, g, r.Split(uint64(i)+1))
		if err != nil {
			return maxcut.Cut{}, Report{}, err
		}
		rep.Attempts = append(rep.Attempts, Attempt{Solver: innerRep.Winner, Value: cut.Value})
		if !found || cut.Value > best.Value {
			best = cut
			rep.Winner = innerRep.Winner
			found = true
		}
	}
	return best, rep, nil
}

// weighting of the differential ensemble.
type weighting int

const (
	unitWeights weighting = iota
	integerWeights
	realWeights
)

// ensembleGraph draws one graph of 2..12 nodes. Integer weights are
// signed, like the merge graphs QAOA² builds.
func ensembleGraph(seed uint64, w weighting) *graph.Graph {
	r := rng.New(seed*0x9e3779b97f4a7c15 + uint64(w))
	n := 2 + r.Intn(11)
	p := 0.2 + 0.6*r.Float64()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() >= p {
				continue
			}
			switch w {
			case unitWeights:
				g.MustAddEdge(i, j, 1)
			case integerWeights:
				v := float64(r.Intn(9) - 3) // -3..5
				if v == 0 {
					v = 7
				}
				g.MustAddEdge(i, j, v)
			case realWeights:
				g.MustAddEdge(i, j, r.Float64())
			}
		}
	}
	return g
}

// memberShapes returns the composite shapes under test. best is the
// constructor of the composite itself, so the same shape is built once
// from BestOfSolver and once from the oracle, nested composites
// included.
func memberShapes(best func(...Solver) Solver) map[string]Solver {
	q := QAOASolver{Opts: qaoa.Options{Layers: 2, MaxIters: 20}}
	// A short SDP budget: the rounding is valid wherever the relaxation
	// stops, and the default 600 iterations would be 90 % of the test.
	c := GWSolver{Opts: sdp.Options{MaxIters: 40}}
	a := AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 10}}
	return map[string]Solver{
		"qaoa-first":        best(q, c),
		"gw-first":          best(c, q),
		"three-members":     best(a, q, c, OneExchangeSolver{}),
		"nested-first":      best(best(q, c), a),
		"nested-last":       best(a, best(c, q), c),
		"exact-then-others": best(ExactSolver{}, q, c),
	}
}

// checkAttempts checks the shape of an attempt list — one entry per
// member, skipped entries bare and only at the tail — and returns how
// many were skipped.
func checkAttempts(t *testing.T, label string, members int, got []Attempt) (skipped int) {
	t.Helper()
	if len(got) != members {
		t.Fatalf("%s: %d attempts for %d members", label, len(got), members)
	}
	for i, at := range got {
		switch {
		case at.Err == SkippedOptimal:
			skipped++
			if at.Value != 0 || at.Nanos != 0 || at.Solver == "" {
				t.Fatalf("%s: skipped attempt %d is %+v, want a name and nothing else", label, i, at)
			}
		case at.Err != "":
			t.Fatalf("%s: attempt %d failed: %s", label, i, at.Err)
		case skipped > 0:
			t.Fatalf("%s: attempt %d ran after a skipped one", label, i)
		}
	}
	return skipped
}

// TestShortCircuitIndistinguishableFromRunningEveryMember pins the
// tentpole's contract over 360 seeded graphs and six composite shapes:
// cut, value bits, winner and the caller's rng after the solve are the
// oracle's; a certificate, whenever issued, is the brute-force optimum
// and is never issued on a graph with a non-integral weight.
func TestShortCircuitIndistinguishableFromRunningEveryMember(t *testing.T) {
	graphsPerWeighting := 120
	if testing.Short() {
		graphsPerWeighting = 15
	}
	fast := memberShapes(func(s ...Solver) Solver { return BestOfSolver{Solvers: s} })
	slow := memberShapes(func(s ...Solver) Solver { return oracleBestOf{Solvers: s} })
	certified, skippedTotal := map[weighting]int{}, 0
	for _, w := range []weighting{unitWeights, integerWeights, realWeights} {
		for seed := uint64(0); seed < uint64(graphsPerWeighting); seed++ {
			g := ensembleGraph(seed, w)
			exact, err := maxcut.BruteForce(g)
			if err != nil {
				t.Fatal(err)
			}
			for label, s := range fast {
				rFast, rSlow := rng.New(seed+1), rng.New(seed+1)
				cut, rep, err := SolveAttributed(s, g, rFast)
				if err != nil {
					t.Fatalf("%s w=%d seed=%d: %v", label, w, seed, err)
				}
				want, wantRep, err := SolveAttributed(slow[label], g, rSlow)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cut.Spins, want.Spins) ||
					math.Float64bits(cut.Value) != math.Float64bits(want.Value) {
					t.Fatalf("%s w=%d seed=%d: cut %v %v, oracle %v %v", label, w, seed, cut.Spins, cut.Value, want.Spins, want.Value)
				}
				if rep.Winner != wantRep.Winner {
					t.Fatalf("%s w=%d seed=%d: winner %q, oracle %q", label, w, seed, rep.Winner, wantRep.Winner)
				}
				if a, b := rFast.Uint64(), rSlow.Uint64(); a != b {
					t.Fatalf("%s w=%d seed=%d: caller's rng left in a different state", label, w, seed)
				}
				skipped := checkAttempts(t, label, len(wantRep.Attempts), rep.Attempts)
				for i, at := range rep.Attempts {
					if at.Err == "" && (at.Solver != wantRep.Attempts[i].Solver ||
						math.Float64bits(at.Value) != math.Float64bits(wantRep.Attempts[i].Value)) {
						t.Fatalf("%s w=%d seed=%d: attempt %d is %+v, oracle %+v", label, w, seed, i, at, wantRep.Attempts[i])
					}
				}
				skippedTotal += skipped
				if skipped > 0 && !rep.Optimal {
					t.Fatalf("%s w=%d seed=%d: members skipped without a certificate", label, w, seed)
				}
				if rep.Optimal {
					certified[w]++
					if !g.IntegralWeights() { // an edgeless "real-weighted" draw has no weights
						t.Fatalf("%s seed=%d: certificate issued on real weights", label, seed)
					}
					if cut.Value != exact.Value {
						t.Fatalf("%s w=%d seed=%d: certified %v, brute force %v", label, w, seed, cut.Value, exact.Value)
					}
				}
			}
		}
	}
	// The ensemble must exercise the mechanism, not merely tolerate it.
	if certified[unitWeights] == 0 || certified[integerWeights] == 0 || skippedTotal == 0 {
		t.Fatalf("ensemble never fired the short-circuit: certified %v, skipped %d", certified, skippedTotal)
	}
	t.Logf("certified solves by weighting %v, members skipped %d", certified, skippedTotal)
}

// TestCertificateNeedsExactArithmetic walks the guard's edges on one
// small graph: the certificate is issued exactly when the weights pass
// the guard AND the cut is the optimum, never on the cut alone.
func TestCertificateNeedsExactArithmetic(t *testing.T) {
	square := func(w float64) *graph.Graph {
		g := graph.New(4)
		for i := 0; i < 4; i++ {
			g.MustAddEdge(i, (i+1)%4, w)
		}
		return g
	}
	q := QAOASolver{Opts: qaoa.Options{Layers: 2, MaxIters: 20}}
	issued := 0
	for _, tc := range []struct {
		name   string
		weight float64
		guard  bool
	}{
		{"unit", 1, true},
		{"large integer", 1 << 50, true},     // 4·2^50 < 2^53
		{"sum reaches 2^53", 1 << 51, false}, // 4·2^51 = 2^53
		{"half-integral", 0.5, false},        // exact in binary, still refused
		{"negative integer", -2, true},
		{"almost integral", 1 + math.Pow(2, -40), false},
	} {
		g := square(tc.weight)
		if g.IntegralWeights() != tc.guard {
			t.Fatalf("%s: IntegralWeights = %v, want %v", tc.name, !tc.guard, tc.guard)
		}
		exact, exactRep, err := SolveAttributed(ExactSolver{}, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if exactRep.Optimal != tc.guard {
			t.Fatalf("%s: exact solver certifies %v under guard %v", tc.name, exactRep.Optimal, tc.guard)
		}
		cut, rep, err := SolveAttributed(q, g, rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := tc.guard && cut.Value == exact.Value; rep.Optimal != want {
			t.Fatalf("%s: Optimal = %v, want %v (cut %v, optimum %v)", tc.name, rep.Optimal, want, cut.Value, exact.Value)
		}
		if rep.Optimal {
			issued++
		}
	}
	if issued == 0 {
		t.Fatal("no case was certified: the positive branch went untested")
	}
	// Edgeless and empty graphs are trivially optimal.
	for _, n := range []int{0, 1, 5} {
		_, rep, err := SolveAttributed(q, graph.New(n), rng.New(1))
		if err != nil || !rep.Optimal {
			t.Fatalf("edgeless graph of %d nodes: Optimal = %v, err %v", n, rep.Optimal, err)
		}
	}
}
