package serve

import (
	"encoding/json"
	"fmt"

	"qaoa2/internal/ising"
)

// CouplingSpec is one Z_i Z_j coupling of a raw Ising submission.
type CouplingSpec struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

// ProblemSpec is the wire form of an Ising/QUBO workload — the
// optional "problem" field of a SolveRequest. When present, the server
// materializes the problem's Hamiltonian, reduces it to an equivalent
// MaxCut instance on N+1 nodes (ising.ToMaxCut), and runs that graph
// through the ordinary job machinery: decomposition, checkpoints,
// coalescing, fleet routing and attribution all apply unchanged. The
// completed result carries a ProblemReport with the decoded
// problem-level answer.
//
// Kind selects the constructor (the ising.Kind* strings):
//
//   - "mis": maximum-weight independent set on the conflict Graph,
//     with optional per-vertex Weights and constraint Penalty
//     (0 = auto).
//   - "vertex-cover": minimum vertex cover on Graph, with optional
//     Penalty (0 = auto).
//   - "number-partition": two-way partitioning of Numbers.
//   - "ising": a raw Hamiltonian over Vars spins given by Couplings,
//     Fields and Offset.
//
// Fields irrelevant to the chosen kind must stay empty.
type ProblemSpec struct {
	Kind string `json:"kind"`
	// Graph is the conflict graph of "mis" and "vertex-cover" problems.
	Graph *GraphSpec `json:"graph,omitempty"`
	// Weights are the per-vertex weights of a weighted "mis" problem
	// (nil = unweighted).
	Weights []float64 `json:"weights,omitempty"`
	// Penalty is the constraint penalty of "mis" / "vertex-cover"
	// encodings (0 = the kind's safe default).
	Penalty float64 `json:"penalty,omitempty"`
	// Numbers is the multiset of a "number-partition" problem.
	Numbers []float64 `json:"numbers,omitempty"`
	// Vars, Couplings, Fields and Offset define a raw "ising"
	// Hamiltonian: E(s) = Σ w_c s_i s_j + Σ Fields_i s_i + Offset.
	Vars      int            `json:"vars,omitempty"`
	Couplings []CouplingSpec `json:"couplings,omitempty"`
	Fields    []float64      `json:"fields,omitempty"`
	Offset    float64        `json:"offset,omitempty"`
}

// Build materializes the problem through the internal/ising
// constructors, validating the spec for its kind.
func (p ProblemSpec) Build() (*ising.Problem, error) {
	switch p.Kind {
	case ising.KindMIS, ising.KindVertexCover:
		if p.Graph == nil {
			return nil, fmt.Errorf("serve: problem kind %q needs a conflict graph", p.Kind)
		}
		g, err := p.Graph.Build()
		if err != nil {
			return nil, err
		}
		if p.Kind == ising.KindMIS {
			return ising.WeightedMIS(g, p.Weights, p.Penalty)
		}
		return ising.MinVertexCover(g, p.Penalty)
	case ising.KindNumberPartition:
		k := len(p.Numbers) // one variable per number, one coupling per pair
		if err := checkSize(k, k*(k-1)/2); err != nil {
			return nil, err
		}
		return ising.NumberPartition(p.Numbers)
	case ising.KindIsing:
		if p.Vars <= 0 {
			return nil, fmt.Errorf("serve: raw ising problem needs vars >= 1, got %d", p.Vars)
		}
		if err := checkSize(p.Vars, len(p.Couplings)); err != nil {
			return nil, err
		}
		if p.Fields != nil && len(p.Fields) != p.Vars {
			return nil, fmt.Errorf("serve: %d fields for %d ising variables", len(p.Fields), p.Vars)
		}
		h := ising.New(p.Vars)
		for _, c := range p.Couplings {
			if err := h.AddCoupling(c.I, c.J, c.W); err != nil {
				return nil, fmt.Errorf("serve: bad coupling (%d,%d): %w", c.I, c.J, err)
			}
		}
		for i, f := range p.Fields {
			if f != 0 {
				if err := h.AddField(i, f); err != nil {
					return nil, err
				}
			}
		}
		h.AddOffset(p.Offset)
		return ising.FromHamiltonian(h), nil
	default:
		return nil, fmt.Errorf("serve: unknown problem kind %q (want %q, %q, %q or %q)",
			p.Kind, ising.KindMIS, ising.KindVertexCover, ising.KindNumberPartition, ising.KindIsing)
	}
}

// canonical renders the spec as its canonical JSON — the problem part
// of the job key. encoding/json emits struct fields in declaration
// order and slice elements in order, so syntactically equal specs
// render identically and distinct specs that happen to reduce to the
// same MaxCut graph (e.g. raw Hamiltonians differing only in Offset)
// still key as distinct solves.
//
// The graph renders in the object form the ids were first computed on,
// not in the wire's text form, so ids and persisted jobs keep matching;
// its edges render as [] when nil, because the text form decodes no
// edges as an empty list and a restored job must key as it did.
func (p ProblemSpec) canonical() string {
	type fields ProblemSpec // the fields without the methods
	key := struct {
		Kind  string       `json:"kind"`
		Graph *graphObject `json:"graph,omitempty"`
		*fields
	}{Kind: p.Kind, fields: (*fields)(&p)}
	if p.Graph != nil {
		g := graphObject(*p.Graph)
		if g.Edges == nil {
			g.Edges = []EdgeSpec{}
		}
		key.Graph = &g
	}
	b, err := json.Marshal(key)
	if err != nil {
		// Unreachable: the spec holds only JSON-native types. Keying on
		// the error string keeps distinct failures from colliding.
		return "unmarshalable:" + err.Error()
	}
	return string(b)
}

// problemKey is the problem component of a request's identity ("" for
// plain MaxCut jobs, which keeps their keys unchanged).
func problemKey(r SolveRequest) string {
	if r.Problem == nil {
		return ""
	}
	return r.Problem.canonical()
}

// ProblemReport is the problem-level decode of a completed problem
// job, attached to its JobResult. Spins is the assignment of the
// problem's own variables (the job's top-level Spins string is the cut
// of the reduced N+1-node MaxCut instance).
type ProblemReport struct {
	Kind string `json:"kind"`
	// Energy is E(Spins) under the problem Hamiltonian.
	Energy float64 `json:"energy"`
	// Objective is the problem-level objective (selected weight for
	// MIS, cover size for vertex cover, imbalance for number
	// partitioning, the energy itself for raw Ising).
	Objective float64 `json:"objective"`
	// Feasible reports whether the assignment satisfies the problem's
	// constraints — penalty encodings can decode infeasible strings,
	// and the report says so instead of presenting raw energy as an
	// answer.
	Feasible bool   `json:"feasible"`
	Spins    string `json:"spins"`
	// Selected lists the chosen vertices for selection problems.
	Selected []int `json:"selected,omitempty"`
}

// problemReportOf decodes a reduced-instance cut back to the problem
// level. The spec was validated by normalize at submit time, so the
// rebuild cannot fail; a nil report on a decode mismatch keeps the
// MaxCut result usable rather than failing the finished job.
func problemReportOf(spec *ProblemSpec, cutSpins []int8) *ProblemReport {
	p, err := spec.Build()
	if err != nil {
		return nil
	}
	spins, err := p.H.DecodeMaxCutSpins(cutSpins)
	if err != nil {
		return nil
	}
	a, err := p.Decode(spins)
	if err != nil {
		return nil
	}
	return &ProblemReport{
		Kind:      p.Kind,
		Energy:    a.Energy,
		Objective: a.Objective,
		Feasible:  a.Feasible,
		Spins:     EncodeSpins(a.Spins),
		Selected:  a.Selected,
	}
}
