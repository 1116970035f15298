package solver

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

func testGraph(n int, p float64, seed uint64) *graph.Graph {
	return graph.ErdosRenyi(n, p, graph.Unweighted, rng.New(seed))
}

// fixedSolver returns a canned value; for attribution tests.
type fixedSolver struct {
	name  string
	value float64
	err   error
}

func (s fixedSolver) Name() string { return s.name }

func (s fixedSolver) SolveSub(g *graph.Graph, _ *rng.Rand) (maxcut.Cut, error) {
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
	// "portfolio" was a registered name until the concurrent race was
	// deleted; it now gets the error every unknown name gets.
	for _, name := range []string{"bogus", "portfolio"} {
		if _, err := Build(Spec{Name: name}); err == nil || !strings.Contains(err.Error(), "unknown solver") {
			t.Fatalf("unknown name %q accepted (err %v)", name, err)
		}
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
		return fixedSolver{name: name, value: float64(spec.Layers)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	s, err := Build(Spec{Name: name, Layers: 4})
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
	spec := Spec{Name: "qaoa", Layers: 3, MaxIters: 40, Rhobeg: 0.5, Shots: 64,
		Backend: "dense", Seed: 9}
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
}

// TestBestOfFailsOnMemberError: a member error fails the composite
// and the error names the member, whatever the other members found.
func TestBestOfFailsOnMemberError(t *testing.T) {
	g := testGraph(6, 0.5, 1)
	s := BestOfSolver{Solvers: []Solver{
		fixedSolver{name: "ok", value: 3},
		fixedSolver{name: "boom", err: fmt.Errorf("kaput")},
	}}
	if _, _, err := s.SolveSubAttributed(g, rng.New(1)); err == nil ||
		!strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("best-of swallowed a member error: %v", err)
	}
	if _, err := s.SolveSub(g, rng.New(1)); err == nil {
		t.Fatal("SolveSub swallowed a member error")
	}
	if _, _, err := (BestOfSolver{}).SolveSubAttributed(g, rng.New(1)); err == nil {
		t.Fatal("empty best-of accepted")
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

// TestBackendNames: every backend name builds a qaoa solver; the
// retired trajectory-noise "noisy" gets the unknown-backend error, in
// qaoa and in the composites that carry a qaoa member.
func TestBackendNames(t *testing.T) {
	for _, be := range []string{"", "fused", "fused-z2", "fused-full", "dense"} {
		if _, err := Build(Spec{Name: "qaoa", Backend: be}); err != nil {
			t.Fatalf("backend %q: %v", be, err)
		}
	}
	for _, name := range []string{"qaoa", "best"} {
		_, err := Build(Spec{Name: name, Backend: "noisy"})
		if err == nil || !strings.Contains(err.Error(), `unknown backend "noisy"`) {
			t.Fatalf("%s with backend noisy: err %v, want the unknown-backend error", name, err)
		}
	}
}
