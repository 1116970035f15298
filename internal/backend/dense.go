package backend

import (
	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/synth"
)

// Dense is the reference gate-walk backend: the ansatz is synthesized to
// a gate-level circuit by internal/synth and every evaluation walks it
// gate by gate through internal/qsim. It is the only kind of backend
// that honors all synthesis preferences (CNOT basis, linear routing,
// depth objectives) and therefore the parity oracle the fused path is
// tested against.
type Dense struct{}

// Name implements Backend.
func (Dense) Name() string { return "dense" }

// Prepare implements Backend.
func (Dense) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	if err := checkGraph(g, cfg); err != nil {
		return nil, err
	}
	tpl, err := synth.BuildTemplate(synth.Model{Graph: g, Layers: cfg.Layers}, cfg.Synthesis)
	if err != nil {
		return nil, err
	}
	layout := identityOrNil(tpl.Layout)
	return &denseAnsatz{n: g.N(), tpl: tpl, layout: layout, diag: CutTable(g, layout)}, nil
}

type denseAnsatz struct {
	n      int
	tpl    *synth.Template
	layout []int
	diag   []float64
}

// Evaluate implements Ansatz: it binds the parameters into the
// template's circuit and walks it on a fresh |0…0⟩ state.
func (a *denseAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	if err := a.tpl.Bind(gammas, betas); err != nil {
		return 0, nil, err
	}
	s, err := qsim.NewState(a.n)
	if err != nil {
		return 0, nil, err
	}
	a.tpl.Circuit.Apply(s)
	return s.ExpectDiagonal(a.diag), s, nil
}

// Diagonal implements Ansatz.
func (a *denseAnsatz) Diagonal() []float64 { return a.diag }

// Layout implements Ansatz.
func (a *denseAnsatz) Layout() []int { return a.layout }

// Report implements Ansatz.
func (a *denseAnsatz) Report() synth.Report { return a.tpl.Report }
