package solver

import (
	"fmt"
	"math"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/mlselect"
	"qaoa2/internal/rng"
)

// MLAdaptiveSolver is the paper's §2/§5 machine-learning method
// selection made executable: a logistic classifier over cheap graph
// features (internal/mlselect) predicts, per sub-graph, whether QAOA
// or the classical solver will win, and only the predicted winner
// runs. Unlike best-of — which pays for every member — ml-adaptive
// spends one solve per sub-graph, which is exactly the resource
// allocation a workflow coordinator needs to decide BEFORE
// dispatching to quantum or classical nodes (Fig. 2).
//
// The decision consumes no randomness and the chosen member receives
// the sub-graph's rng stream unsplit, so a sub-graph routed to QAOA
// yields bit-for-bit the cut an all-QAOA run would have produced
// there (and likewise for the classical side) — routing changes which
// solver runs, never what that solver computes.
type MLAdaptiveSolver struct {
	// Model gates the decision; nil uses DefaultSelector (trained on
	// the Fig. 3 grid-search knowledge base).
	Model *mlselect.Model
	// Quantum runs when the model predicts a QAOA win (default
	// QAOASolver{}); Classical otherwise (default GWSolver{}).
	Quantum, Classical Solver
}

// Name implements Solver.
func (s MLAdaptiveSolver) Name() string { return "ml-adaptive" }

// model returns the gating model, defaulting to the shared pretrained
// selector (read-only: Probability never mutates, so every dispatch
// can share one instance allocation-free).
func (s MLAdaptiveSolver) model() *mlselect.Model {
	if s.Model != nil {
		return s.Model
	}
	return &defaultSelector
}

// Choose returns the member solver the model routes g to — exposed so
// coordinators can pre-plan resource allocation (and so the dispatch
// overhead is benchmarkable: BenchmarkMLAdaptiveDispatch measures
// exactly this decision path).
func (s MLAdaptiveSolver) Choose(g *graph.Graph) Solver {
	quantum, classical := s.members()
	if s.model().PredictQAOA(g) {
		return quantum
	}
	return classical
}

// members returns the quantum and classical members with their
// defaults applied.
func (s MLAdaptiveSolver) members() (quantum, classical Solver) {
	quantum, classical = s.Quantum, s.Classical
	if quantum == nil {
		quantum = QAOASolver{}
	}
	if classical == nil {
		classical = GWSolver{}
	}
	return quantum, classical
}

// ConfigTag renders the gate's weights and bias (as float64 bits) and
// both members' tags. The printed state would show the Model pointer,
// a different address in every process, so a run gated by an explicit
// Model could never resume its checkpoint.
func (s MLAdaptiveSolver) ConfigTag() string {
	m := s.model()
	bits := make([]uint64, len(m.Weights))
	for i, w := range m.Weights {
		bits[i] = math.Float64bits(w)
	}
	quantum, classical := s.members()
	return fmt.Sprintf("ml-adaptive|weights:%v|bias:%v|quantum:%s|classical:%s",
		bits, math.Float64bits(m.Bias), ConfigTag(quantum), ConfigTag(classical))
}

// SolveSub implements Solver.
func (s MLAdaptiveSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := s.SolveSubAttributed(g, r)
	return cut, err
}

// SolveSubAttributed implements Attributor: the winner is the routed
// member (the whole point of the attribution plumbing — reports show
// the per-sub-graph quantum-vs-classical decision directly), resolved
// through SolveAttributed so a nested composite member attributes
// through to its leaf winner, and the member's optimality certificate
// passes through with it.
func (s MLAdaptiveSolver) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, Report, error) {
	chosen := s.Choose(g)
	start := time.Now()
	cut, rep, err := SolveAttributed(chosen, g, r)
	if err != nil {
		return maxcut.Cut{}, Report{}, fmt.Errorf("solver: ml-adaptive routed %s: %w", chosen.Name(), err)
	}
	return cut, Report{
		Winner: rep.Winner,
		Attempts: []Attempt{{
			Solver: rep.Winner, Value: cut.Value, Nanos: time.Since(start).Nanoseconds(),
		}},
		Optimal: rep.Optimal,
	}, nil
}

// DefaultSelector is the pretrained QAOA-vs-GW gate: a logistic
// regression over the 8 mlselect graph features, trained on the
// Fig. 3 grid-search knowledge base (experiments.TrainSolverSelector
// over the laptop-scale DefaultFig3Config grid — the paper's "previous
// results" store). Regenerate the literals with:
//
//	go run ./cmd/gridsearch -selector
//
// which reruns the grid, retrains, and prints this function body.
func DefaultSelector() *mlselect.Model {
	// Callers get their own copy — the shared read-only instance the
	// dispatch path uses must never be mutated through this handle.
	return &mlselect.Model{
		Weights: append([]float64(nil), defaultSelectorWeights[:]...),
		Bias:    defaultSelectorBias,
	}
}

// defaultSelector is the shared read-only instance behind the nil-
// Model fast path.
var defaultSelector = mlselect.Model{
	Weights: defaultSelectorWeights[:],
	Bias:    defaultSelectorBias,
}

// Trained weights for DefaultSelector (see that function's comment
// for provenance and the regeneration command).
var defaultSelectorWeights = [mlselect.FeatureCount]float64{
	// node count/50, density, mean deg/10, std deg/10,
	// max deg/20, mean w, std w, clustering proxy
	14.2406, 9.8151, 2.5670, 3.2707, -3.0960, 2.5227, 13.3223, -6.3786,
}

const defaultSelectorBias = -7.0945
