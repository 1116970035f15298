package backend

import (
	"fmt"
	"os"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/synth"
)

// defaultDistRanks is the rank count "fused-dist" selects when no
// explicit ":N" suffix (or Ranks field) is given.
const defaultDistRanks = 4

// FusedDist is the sharded variant of Fused: the same compiled cost
// diagonal and fused phase+mixer sweeps, executed by qsim.DistEngine
// across a power-of-two rank count over the in-process hpc comm world.
// Cost layers stay rank-local (diagonals never communicate); only the
// top log2(ranks) qubits' mixer rotations run as pairwise slice
// exchanges. The Z2 symmetry reduction applies exactly as on Fused
// (cut tables are always spin-flip symmetric; QAOA2_NOZ2 or Full
// disables it), and parity against the Dense gate walk is pinned at
// 1e-12 at every rank count by the backend tests.
//
// Rank count is a CONFIG knob, not a capacity requirement: sub-graphs
// too small to give every rank at least one local qubit are clamped to
// the largest valid power of two, so QAOA² leaf solves of any size can
// run under one backend selection. At Ranks=1 the engine degenerates to
// the single-slice fused sweep (held at fused-z2 cost by the bench
// ratio gate) — the ranks>1 configurations model the paper's §4
// multi-node decomposition and are metered through DistStats.
type FusedDist struct {
	// Ranks is the requested rank count (power of two; 0 selects
	// defaultDistRanks).
	Ranks int
	// Full disables the Z2 symmetry reduction.
	Full bool
}

// Name implements Backend: "fused-dist:R" with the requested rank
// count, matching the ByName spelling.
func (f FusedDist) Name() string {
	return fmt.Sprintf("fused-dist:%d", f.ranks())
}

func (f FusedDist) ranks() int {
	if f.Ranks == 0 {
		return defaultDistRanks
	}
	return f.Ranks
}

// Prepare implements Backend: compiles the cost diagonal exactly as
// Fused does, then builds the persistent sharded engine with its rank
// goroutines.
func (f FusedDist) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	if err := checkGraph(g, cfg); err != nil {
		return nil, err
	}
	ranks := f.ranks()
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("backend: fused-dist rank count %d is not a power of two", ranks)
	}
	n := g.N()
	diag := CutTable(g, nil)
	half := g.TotalWeight() / 2
	a := &fusedDistAnsatz{n: n, layers: cfg.Layers, diag: diag}
	a.z2 = !f.Full && n >= 2 && os.Getenv("QAOA2_NOZ2") == ""
	nEff := n
	if a.z2 {
		nEff = n - 1
	}
	// Clamp: every rank must keep at least one local qubit of the
	// (possibly reduced) index space. Small QAOA² leaves routinely hit
	// this; the backend stays selectable at any sub-graph size.
	if max := 1 << uint(nEff-1); ranks > max {
		ranks = max
	}
	a.ranks = ranks
	phaseLen := len(diag)
	if a.z2 {
		phaseLen /= 2
	}
	a.levels, a.idx, a.shift = phaseTables(diag, -half, phaseLen)
	eng, err := a.newEngine()
	if err != nil {
		return nil, err
	}
	a.eng = eng
	return a, nil
}

type fusedDistAnsatz struct {
	n, layers int
	ranks     int // effective (clamped) rank count
	z2        bool
	diag      []float64 // FULL cut-value table
	shift     []float64 // diag − W/2 (nil on the indexed path; half-length when z2)
	levels    []float64
	idx       []int32
	eng       *qsim.DistEngine
}

func (a *fusedDistAnsatz) newEngine() (*qsim.DistEngine, error) {
	if a.z2 {
		return qsim.NewDistZ2Engine(a.n, a.ranks, a.diag[:len(a.diag)/2], a.levels, a.idx, a.shift)
	}
	return qsim.NewDistEngine(a.n, a.ranks, a.diag, a.levels, a.idx, a.shift)
}

// Evaluate implements Ansatz. The returned state is the engine's
// gathered (zero-copy) statevector, valid until the next Evaluate.
func (a *fusedDistAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	if err := checkParams(a.layers, gammas, betas); err != nil {
		return 0, nil, err
	}
	return a.eng.Evaluate(gammas, betas), a.eng.State(), nil
}

// Ranks returns the effective rank count after small-graph clamping.
func (a *fusedDistAnsatz) Ranks() int { return a.ranks }

// Stats exposes the engine's communication ledger for scaling
// experiments and bench provenance.
func (a *fusedDistAnsatz) Stats() qsim.DistStats { return a.eng.Stats() }

// Diagonal implements Ansatz.
func (a *fusedDistAnsatz) Diagonal() []float64 { return a.diag }

// Layout implements Ansatz: always identity.
func (a *fusedDistAnsatz) Layout() []int { return nil }

// Report implements Ansatz: no circuit is synthesized.
func (a *fusedDistAnsatz) Report() synth.Report { return synth.Report{} }
