package backend

import (
	"qaoa2/internal/graph"
)

// Dense is the reference gate-walk backend: the ansatz is synthesized to
// a gate-level circuit by internal/synth and every evaluation walks it
// gate by gate through internal/qsim — the Noisy walk with a zero noise
// model, which draws nothing and runs one trajectory. It is the only
// kind of backend that honors all synthesis preferences (CNOT basis,
// linear routing, depth objectives) and therefore the parity oracle the
// fused path is tested against.
type Dense struct{}

// Name implements Backend.
func (Dense) Name() string { return "dense" }

// Prepare implements Backend.
func (Dense) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	return Noisy{}.Prepare(g, cfg)
}
