package backend

import (
	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/synth"
)

// Noisy executes the synthesized gate walk under the trajectory-sampled
// Pauli noise model of internal/qsim/noise.go, averaging ⟨H_C⟩ over
// Trajectories runs per evaluation — the NISQ degradation model that
// bounds useful circuit depth (paper §1). With a zero Model it is
// Dense: a single noiseless trajectory.
type Noisy struct {
	// Model is the per-gate stochastic Pauli error model.
	Model qsim.NoiseModel
	// Trajectories is the number of quantum trajectories averaged per
	// evaluation (default 1; forced to 1 when Model is zero).
	Trajectories int
	// Rand supplies trajectory randomness; nil derives a stream from
	// Config.Seed at Prepare time. A *rng.Rand is not safe for
	// concurrent use, so set Rand only for single-goroutine runs (the
	// NoisyExpectation convenience path); leave it nil when the backend
	// is shared across parallel sub-graph solves.
	Rand *rng.Rand
}

// Name implements Backend.
func (Noisy) Name() string { return "noisy" }

// Prepare implements Backend.
func (b Noisy) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	if err := checkGraph(g, cfg); err != nil {
		return nil, err
	}
	if err := b.Model.Validate(); err != nil {
		return nil, err
	}
	tpl, err := synth.BuildTemplate(synth.Model{Graph: g, Layers: cfg.Layers}, cfg.Synthesis)
	if err != nil {
		return nil, err
	}
	layout := identityOrNil(tpl.Layout)
	trajectories := b.Trajectories
	if trajectories < 1 || b.Model.IsZero() {
		trajectories = 1
	}
	r := b.Rand
	if r == nil {
		r = rng.New(cfg.Seed ^ 0x5bd1e995)
	}
	return &noisyAnsatz{
		n:            g.N(),
		layers:       cfg.Layers,
		tpl:          tpl,
		layout:       layout,
		diag:         CutTable(g, layout),
		model:        b.Model,
		trajectories: trajectories,
		r:            r,
	}, nil
}

type noisyAnsatz struct {
	n, layers    int
	tpl          *synth.Template
	layout       []int
	diag         []float64
	model        qsim.NoiseModel
	trajectories int
	r            *rng.Rand
	calls        uint64
}

// Evaluate implements Ansatz: the gate walk runs once per trajectory on
// an independent noise stream and the energies are averaged. The
// returned state is the last trajectory's — a sample, not the mean
// state (mixed states need a density matrix the statevector simulator
// does not track). Trajectory streams derive deterministically from
// (evaluation index, trajectory index), so repeated Evaluate calls see
// fresh noise but a re-run of the same call sequence reproduces it.
func (a *noisyAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	if err := a.tpl.Bind(gammas, betas); err != nil {
		return 0, nil, err
	}
	total := 0.0
	var last *qsim.State
	for tr := 0; tr < a.trajectories; tr++ {
		s, err := qsim.NewState(a.n)
		if err != nil {
			return 0, nil, err
		}
		ns, err := qsim.NewNoisyState(s, a.model, a.r.Split(a.calls*0x9e3779b9+uint64(tr)+0xa5a5))
		if err != nil {
			return 0, nil, err
		}
		a.tpl.Circuit.Apply(ns)
		total += s.ExpectDiagonal(a.diag)
		last = s
	}
	a.calls++
	return total / float64(a.trajectories), last, nil
}

// Diagonal implements Ansatz.
func (a *noisyAnsatz) Diagonal() []float64 { return a.diag }

// Layout implements Ansatz.
func (a *noisyAnsatz) Layout() []int { return a.layout }

// Report implements Ansatz.
func (a *noisyAnsatz) Report() synth.Report { return a.tpl.Report }
