package solver

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
)

func testGraph(n int, p float64, seed uint64) *graph.Graph {
	return graph.ErdosRenyi(n, p, graph.Unweighted, rng.New(seed))
}

// fixedSolver returns a canned value; for attribution tests.
type fixedSolver struct {
	name  string
	value float64
	delay time.Duration
	err   error
}

func (s fixedSolver) Name() string { return s.name }

func (s fixedSolver) SolveSub(g *graph.Graph, _ *rng.Rand) (maxcut.Cut, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.err != nil {
		return maxcut.Cut{}, s.err
	}
	spins := make([]int8, g.N())
	for i := range spins {
		spins[i] = 1
	}
	return maxcut.Cut{Spins: spins, Value: s.value}, nil
}

func TestRegistryBuildsEveryName(t *testing.T) {
	for _, name := range Names() {
		s, err := Build(Spec{Name: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() == "" {
			t.Fatalf("%s: empty solver name", name)
		}
	}
	if _, err := Build(Spec{Name: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("unknown name accepted (err %v)", err)
	}
}

func TestRegistryEveryNameSolves(t *testing.T) {
	g := testGraph(8, 0.4, 3)
	for _, name := range Names() {
		s, err := Build(Spec{Name: name, Layers: 1, MaxIters: 4, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cut, err := s.SolveSub(g, rng.New(7))
		if err != nil {
			t.Fatalf("%s: solve: %v", name, err)
		}
		if err := cut.Validate(g); err != nil {
			t.Fatalf("%s: invalid cut: %v", name, err)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Register("qaoa", func(Spec) (Solver, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
}

func TestRegisterExtendsEverySurface(t *testing.T) {
	name := "test-custom-solver"
	if err := Register(name, func(spec Spec) (Solver, error) {
		return fixedSolver{name: name, value: float64(spec.Trials)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	s, err := Build(Spec{Name: name, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := s.SolveSub(testGraph(4, 1, 1), rng.New(1))
	if err != nil || cut.Value != 4 {
		t.Fatalf("custom solver: cut %v err %v", cut.Value, err)
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatal("registered name missing from Names()")
	}
}

func TestSpecJSONRoundTrips(t *testing.T) {
	spec := Spec{Name: "portfolio", Layers: 3, Rhobeg: 0.5, BudgetMS: 250,
		Inner: []Spec{{Name: "qaoa", Layers: 2}, {Name: "gw"}}}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("spec does not round-trip through JSON:\n%+v\n%+v", spec, back)
	}
}

func TestCompositeDefaultsInheritParameters(t *testing.T) {
	s, err := Build(Spec{Name: "best", Layers: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := s.(BestOfSolver)
	if !ok {
		t.Fatalf("best built %T", s)
	}
	if len(best.Solvers) != 2 {
		t.Fatalf("best has %d members", len(best.Solvers))
	}
	q, ok := best.Solvers[0].(QAOASolver)
	if !ok || q.Opts.Layers != 5 || q.Opts.Seed != 9 {
		t.Fatalf("qaoa member did not inherit spec params: %+v", best.Solvers[0])
	}
	if _, ok := best.Solvers[1].(GWSolver); !ok {
		t.Fatalf("classical member is %T", best.Solvers[1])
	}
}

func TestBestOfAttributionNamesActualWinner(t *testing.T) {
	g := testGraph(6, 0.5, 1)
	s := BestOfSolver{Solvers: []Solver{
		fixedSolver{name: "low", value: 1},
		fixedSolver{name: "high", value: 9},
		fixedSolver{name: "tie-high", value: 9},
	}}
	cut, rep, err := s.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if cut.Value != 9 || rep.Winner != "high" {
		t.Fatalf("winner %q value %v, want high/9 (earliest index wins ties)", rep.Winner, cut.Value)
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("%d attempts, want 3", len(rep.Attempts))
	}
	for i, want := range []string{"low", "high", "tie-high"} {
		if rep.Attempts[i].Solver != want {
			t.Fatalf("attempt %d is %q, want %q", i, rep.Attempts[i].Solver, want)
		}
	}
}

func TestNestedCompositeAttributesLeafWinner(t *testing.T) {
	// A composite member inside a composite must attribute through to
	// the LEAF solver that produced the cut — SubReport.Solver never
	// names a composite.
	g := testGraph(6, 0.5, 1)
	nestedBest := BestOfSolver{Solvers: []Solver{
		fixedSolver{name: "leaf-low", value: 3},
		fixedSolver{name: "leaf-high", value: 8},
	}}
	outer := BestOfSolver{Solvers: []Solver{
		fixedSolver{name: "plain", value: 5},
		nestedBest,
	}}
	cut, rep, err := outer.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if cut.Value != 8 || rep.Winner != "leaf-high" {
		t.Fatalf("winner %q/%v, want leaf-high/8 (attributed through the nested composite)", rep.Winner, cut.Value)
	}
	if rep.Attempts[1].Solver != "leaf-high" {
		t.Fatalf("nested member's attempt labeled %q, want its leaf winner", rep.Attempts[1].Solver)
	}
	// Same through a racing portfolio and the ml-adaptive router.
	_, prep, err := (PortfolioSolver{Solvers: outer.Solvers}).SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if prep.Winner != "leaf-high" {
		t.Fatalf("portfolio nested winner %q", prep.Winner)
	}
	ml := MLAdaptiveSolver{Quantum: nestedBest, Classical: nestedBest}
	_, mrep, err := ml.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Winner != "leaf-high" {
		t.Fatalf("ml-adaptive nested winner %q", mrep.Winner)
	}
}

// withoutTiming strips the telemetry from an attempt list.
func withoutTiming(attempts []Attempt) []Attempt {
	out := append([]Attempt(nil), attempts...)
	for i := range out {
		out[i].Nanos = 0
	}
	return out
}

// TestPortfolioMatchesBestOfWithoutDeadline pins the no-deadline
// equivalence — cut, winner, certificate, attempt list up to timing and
// the caller's rng afterwards — on line-ups where nothing is certified,
// where the first member settles the race, and where a later one does
// (earlier members must still be heard). Run it under -race: settled
// races leave member goroutines running behind the return.
func TestPortfolioMatchesBestOfWithoutDeadline(t *testing.T) {
	g := testGraph(12, 0.3, 11)
	anneal := AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 40}}
	q := QAOASolver{Opts: qaoa.Options{Layers: 2, MaxIters: 20}}
	for name, inner := range map[string][]Solver{
		"uncertified":    {anneal, OneExchangeSolver{}, RandomSolver{Trials: 3}},
		"first settles":  {q, GWSolver{}, anneal},
		"second settles": {anneal, q, GWSolver{}},
		"last settles":   {GWSolver{}, anneal, ExactSolver{}},
		"nested":         {anneal, BestOfSolver{Solvers: []Solver{q, GWSolver{}}}, OneExchangeSolver{}},
	} {
		for seed := uint64(0); seed < 5; seed++ {
			rb, rp := rng.New(seed), rng.New(seed)
			bCut, bRep, err := BestOfSolver{Solvers: inner}.SolveSubAttributed(g, rb)
			if err != nil {
				t.Fatal(err)
			}
			pCut, pRep, err := PortfolioSolver{Solvers: inner}.SolveSubAttributed(g, rp)
			if err != nil {
				t.Fatal(err)
			}
			if bCut.Value != pCut.Value || !reflect.DeepEqual(bCut.Spins, pCut.Spins) {
				t.Fatalf("%s seed %d: portfolio cut differs from best-of", name, seed)
			}
			if bRep.Winner != pRep.Winner || bRep.Optimal != pRep.Optimal {
				t.Fatalf("%s seed %d: portfolio winner %q optimal %v, best-of winner %q optimal %v",
					name, seed, pRep.Winner, pRep.Optimal, bRep.Winner, bRep.Optimal)
			}
			if b, p := withoutTiming(bRep.Attempts), withoutTiming(pRep.Attempts); !reflect.DeepEqual(b, p) {
				t.Fatalf("%s seed %d: portfolio attempts %+v, best-of %+v", name, seed, p, b)
			}
			if rb.Uint64() != rp.Uint64() {
				t.Fatalf("%s seed %d: portfolio left the caller's rng in a different state", name, seed)
			}
			if name != "uncertified" && !bRep.Optimal {
				t.Fatalf("%s seed %d: line-up built to certify did not", name, seed)
			}
		}
	}
}

// TestPortfolioSettlesOnCertifiedOptimum checks the two halves of the
// settle rule with members of known speed: a certified optimum ends the
// race without waiting for later members, but not before every earlier
// member has been heard, since an earlier member wins a tie.
func TestPortfolioSettlesOnCertifiedOptimum(t *testing.T) {
	g := testGraph(8, 0.5, 1)
	exact, err := maxcut.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cut, rep, err := PortfolioSolver{Solvers: []Solver{
		fixedSolver{name: "slow-tie", value: exact.Value, delay: 30 * time.Millisecond},
		ExactSolver{},
		fixedSolver{name: "never-heard", value: 1, delay: 5 * time.Second},
		fixedSolver{name: "fails-unheard", err: fmt.Errorf("boom")},
	}}.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("race waited %v for a member behind the optimum", elapsed)
	}
	if rep.Winner != "slow-tie" || cut.Value != exact.Value || !rep.Optimal {
		t.Fatalf("winner %q value %v optimal %v, want the earlier member's tie", rep.Winner, cut.Value, rep.Optimal)
	}
	for i, name := range []string{"never-heard", "fails-unheard"} {
		if at := rep.Attempts[2+i]; at != (Attempt{Solver: name, Err: SkippedOptimal}) {
			t.Fatalf("member behind the optimum reported as %+v", at)
		}
	}
}

func TestPortfolioDeadlineKeepsFinishedMembers(t *testing.T) {
	g := testGraph(6, 0.5, 1)
	s := PortfolioSolver{
		Deadline: 20 * time.Millisecond,
		Solvers: []Solver{
			fixedSolver{name: "fast-low", value: 2},
			fixedSolver{name: "slow-high", value: 99, delay: 2 * time.Second},
		},
	}
	start := time.Now()
	cut, rep, err := s.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline did not bound the race: %v", elapsed)
	}
	if rep.Winner != "fast-low" || cut.Value != 2 {
		t.Fatalf("winner %q value %v, want the finished member", rep.Winner, cut.Value)
	}
	abandoned := rep.Attempts[1]
	if abandoned.Solver != "slow-high" || !strings.Contains(abandoned.Err, "abandoned") {
		t.Fatalf("slow member not marked abandoned: %+v", abandoned)
	}
}

func TestPortfolioDeadlineWaitsForFirstFinisher(t *testing.T) {
	g := testGraph(6, 0.5, 1)
	s := PortfolioSolver{
		Deadline: time.Millisecond,
		Solvers: []Solver{
			fixedSolver{name: "slowish", value: 5, delay: 50 * time.Millisecond},
		},
	}
	cut, rep, err := s.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner != "slowish" || cut.Value != 5 {
		t.Fatalf("empty race did not wait for the first finisher: %+v", rep)
	}
}

func TestPortfolioDeadlineOutlivesFastFailingMember(t *testing.T) {
	// A member that fails BEFORE the deadline must not satisfy the
	// "someone finished" condition: the race keeps waiting for the
	// slow member that can actually answer.
	g := testGraph(6, 0.5, 1)
	s := PortfolioSolver{
		Deadline: 5 * time.Millisecond,
		Solvers: []Solver{
			fixedSolver{name: "fail-fast", err: fmt.Errorf("no qpu")},
			fixedSolver{name: "slow-good", value: 7, delay: 40 * time.Millisecond},
		},
	}
	cut, rep, err := s.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatalf("portfolio gave up instead of waiting for the slow member: %v", err)
	}
	if rep.Winner != "slow-good" || cut.Value != 7 {
		t.Fatalf("winner %q/%v, want slow-good/7", rep.Winner, cut.Value)
	}
	if !strings.Contains(rep.Attempts[0].Err, "no qpu") {
		t.Fatalf("failed member not recorded: %+v", rep.Attempts[0])
	}
	// Error tolerance is keyed on the configured mode, not on whether
	// the timer happened to fire: a deadline race where every member
	// finishes EARLY (one error, one success) still succeeds.
	early := PortfolioSolver{
		Deadline: time.Hour,
		Solvers: []Solver{
			fixedSolver{name: "early-fail", err: fmt.Errorf("no qpu")},
			fixedSolver{name: "early-good", value: 4},
		},
	}
	cut, rep, err = early.SolveSubAttributed(g, rng.New(1))
	if err != nil || rep.Winner != "early-good" || cut.Value != 4 {
		t.Fatalf("pre-deadline finish with one error: cut %v winner %q err %v", cut.Value, rep.Winner, err)
	}
	// And when EVERY member fails, the race reports the first error.
	allFail := PortfolioSolver{
		Deadline: time.Millisecond,
		Solvers: []Solver{
			fixedSolver{name: "a", err: fmt.Errorf("boom-a"), delay: 10 * time.Millisecond},
			fixedSolver{name: "b", err: fmt.Errorf("boom-b"), delay: 10 * time.Millisecond},
		},
	}
	if _, _, err := allFail.SolveSubAttributed(g, rng.New(1)); err == nil ||
		!strings.Contains(err.Error(), "boom-a") {
		t.Fatalf("all-failed race err = %v, want boom-a", err)
	}
}

func TestPortfolioErrorDeterministicWithoutDeadline(t *testing.T) {
	g := testGraph(6, 0.5, 1)
	s := PortfolioSolver{Solvers: []Solver{
		fixedSolver{name: "ok", value: 3},
		fixedSolver{name: "boom", err: fmt.Errorf("kaput")},
	}}
	if _, _, err := s.SolveSubAttributed(g, rng.New(1)); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("deadline-free portfolio swallowed a member error: %v", err)
	}
	if _, _, err := (PortfolioSolver{}).SolveSubAttributed(g, rng.New(1)); err == nil {
		t.Fatal("empty portfolio accepted")
	}
}

func TestMLAdaptiveRoutesAndAttributes(t *testing.T) {
	quantum := fixedSolver{name: "q", value: 1}
	classical := fixedSolver{name: "c", value: 2}
	s := MLAdaptiveSolver{Quantum: quantum, Classical: classical}
	sawQ, sawC := false, false
	for seed := uint64(0); seed < 30; seed++ {
		n := 6 + int(seed%18)
		p := 0.1 + float64(seed%5)*0.2
		g := graph.ErdosRenyi(n, p, graph.Unweighted, rng.New(seed))
		chosen := s.Choose(g)
		cut, rep, err := s.SolveSubAttributed(g, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Winner != chosen.Name() {
			t.Fatalf("attributed %q but routed %q", rep.Winner, chosen.Name())
		}
		want := map[string]float64{"q": 1, "c": 2}[chosen.Name()]
		if cut.Value != want {
			t.Fatalf("routed member did not run: value %v for %q", cut.Value, chosen.Name())
		}
		switch chosen.Name() {
		case "q":
			sawQ = true
		case "c":
			sawC = true
		}
	}
	if !sawQ || !sawC {
		t.Fatalf("default selector never varied its decision (quantum %v classical %v) — gate is degenerate", sawQ, sawC)
	}
}

func TestMLAdaptiveMatchesRoutedMemberBitForBit(t *testing.T) {
	// Routing must change WHICH solver runs, never what it computes:
	// a sub-graph routed to a member yields the member's standalone
	// cut on the identical rng stream.
	s := MLAdaptiveSolver{
		Quantum:   AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 30}},
		Classical: OneExchangeSolver{},
	}
	for seed := uint64(0); seed < 10; seed++ {
		g := graph.ErdosRenyi(10+int(seed), 0.3, graph.UniformWeights, rng.New(seed+50))
		chosen := s.Choose(g)
		got, err := s.SolveSub(g, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := chosen.SolveSub(g, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || !reflect.DeepEqual(got.Spins, want.Spins) {
			t.Fatalf("seed %d: ml-adaptive diverged from routed member %s", seed, chosen.Name())
		}
	}
}

func TestSolveAttributedPlainSolver(t *testing.T) {
	g := testGraph(8, 0.4, 2)
	cut, rep, err := SolveAttributed(OneExchangeSolver{}, g, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner != "one-exchange" || rep.Attempts != nil {
		t.Fatalf("plain solver attribution: %+v", rep)
	}
	direct, _ := OneExchangeSolver{}.SolveSub(g, rng.New(3))
	if cut.Value != direct.Value {
		t.Fatal("SolveAttributed changed the plain solver's result")
	}
}

func TestSDPMethodParsing(t *testing.T) {
	for _, tc := range []struct{ method string }{{""}, {"admm"}, {"mixing"}, {"auto"}} {
		if _, err := Build(Spec{Name: "sdp-gw", Method: tc.method}); err != nil {
			t.Fatalf("method %q: %v", tc.method, err)
		}
	}
	if _, err := Build(Spec{Name: "sdp-gw", Method: "scs"}); err == nil {
		t.Fatal("unknown SDP method accepted")
	}
}
