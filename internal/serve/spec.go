package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"qaoa2/internal/graph"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// EdgeSpec is one weighted edge of a submitted instance.
type EdgeSpec struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

// GraphSpec is the wire form of a MaxCut instance. On the wire it is
// one JSON string holding graph.Read's text form ("n m" and one "i j w"
// line per edge); UnmarshalJSON also reads the object form
// {"nodes":n,"edges":[{"i":i,"j":j,"w":w},...]} that clients and
// jobs.json files written before the text form still carry.
type GraphSpec struct {
	Nodes int        `json:"nodes"`
	Edges []EdgeSpec `json:"edges"`
}

// graphObject is GraphSpec without its methods: encoding/json gives it
// the object form. It decodes that form, and it renders a problem's
// graph in the job key (ProblemSpec.canonical), whose ids predate the
// text form.
type graphObject GraphSpec

// MarshalText writes the graph in the text form; encoding/json sends
// it as one string.
func (s GraphSpec) MarshalText() ([]byte, error) {
	return graph.AppendText(nil, s.Nodes, s.Edges, func(e EdgeSpec) graph.Edge { return graph.Edge(e) }), nil
}

// UnmarshalJSON reads a string through graph.ParseText, so a text-form
// graph fails here with graph.Read's error for the same text, and any
// other value as the object form, unknown fields refused.
func (s *GraphSpec) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return dec.Decode((*graphObject)(s))
	}
	var text string
	if err := json.Unmarshal(data, &text); err != nil {
		return err
	}
	n, edges, err := graph.ParseText(text, func(e graph.Edge) EdgeSpec { return EdgeSpec(e) })
	if err != nil {
		return err
	}
	*s = GraphSpec{Nodes: n, Edges: edges}
	return nil
}

// GraphSpecOf converts a graph into its wire form (the client-side
// counterpart of GraphSpec.Build).
func GraphSpecOf(g *graph.Graph) GraphSpec {
	spec := GraphSpec{Nodes: g.N(), Edges: make([]EdgeSpec, 0, g.M())}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, EdgeSpec{I: e.I, J: e.J, W: e.W})
	}
	return spec
}

// Instance bounds. Nodes is an allocation request: graph.New sizes the
// adjacency table from it before a single edge is read, so without a
// bound a 30-byte body asks for gigabytes behind MaxSolveBody. 2^20 of
// each is fifty times the nodes and twenty-five times the edges of the
// largest Gset instance (G81: 20 000 nodes, 40 000 edges) and costs
// tens of megabytes to hold. A text-form body within MaxSolveBody can
// list up to 2.8 million edge lines, in-process callers of Submit never
// pass the body limit, and a number-partition problem squares its
// input, so edges are bounded here too.
const (
	maxGraphNodes = 1 << 20
	maxGraphEdges = 1 << 20
)

// maxLayers bounds the QAOA depth p a request may ask for. Layers sizes
// the ansatz parameters and the optimizer's working set before a single
// circuit runs, at about 144 bytes per layer, so without a bound a
// 20-byte field asks for hundreds of gigabytes once a QAOA leaf starts.
// The paper's iteration budget saturates at p = 8 (qaoa.IterationsFor)
// and no command, example or experiment goes deeper; 64 is eight times
// that.
const maxLayers = 64

// ErrTooLarge rejects an instance over the bounds above (HTTP 413).
var ErrTooLarge = errors.New("serve: instance too large")

// checkSize is the one size gate every submitted instance passes,
// graphs directly and problems before their Hamiltonian is built.
func checkSize(nodes, edges int) error {
	if nodes > maxGraphNodes {
		return fmt.Errorf("%w: %d nodes, limit %d", ErrTooLarge, nodes, maxGraphNodes)
	}
	if edges > maxGraphEdges {
		return fmt.Errorf("%w: %d edges, limit %d", ErrTooLarge, edges, maxGraphEdges)
	}
	return nil
}

// Build materializes the instance in time linear in its edges. A
// non-finite weight, or a pair listed twice whose weights sum to one,
// fails with a *graph.RefusedError.
func (s GraphSpec) Build() (*graph.Graph, error) {
	if s.Nodes <= 0 {
		return nil, fmt.Errorf("serve: graph needs nodes >= 1, got %d", s.Nodes)
	}
	if err := checkSize(s.Nodes, len(s.Edges)); err != nil {
		return nil, err
	}
	g, err := graph.FromEdges(s.Nodes, s.Edges, func(e EdgeSpec) graph.Edge { return graph.Edge(e) })
	if err != nil {
		return nil, fmt.Errorf("serve: bad edge: %w", err)
	}
	return g, nil
}

// Priority lanes of the job queue. High-priority jobs are admitted to
// a worker slot before any waiting normal job; within a lane admission
// is FIFO.
const (
	PriorityNormal = "normal"
	PriorityHigh   = "high"
)

// SolveRequest is one solve submission (the POST /v1/solve body).
// Graph (or Problem), MaxQubits, Solver, Merge, Layers and Seed
// determine the result and form the job's cache key; Priority and Parallelism only
// shape scheduling, so duplicates that differ in them still coalesce
// (the task-graph runtime returns bit-identical results at every
// parallelism).
type SolveRequest struct {
	Graph GraphSpec `json:"graph"`
	// Problem submits an Ising/QUBO workload instead of a plain MaxCut
	// graph. normalize derives Graph from it (the ancilla MaxCut
	// reduction of the problem Hamiltonian), so any explicit Graph is
	// ignored, and key folds the canonical problem into the job
	// identity so distinct problems never collide even when their
	// reduced graphs coincide.
	Problem   *ProblemSpec `json:"problem,omitempty"`
	MaxQubits int          `json:"maxQubits,omitempty"`
	// Solver/Merge name the sub-graph and merge-graph solvers — any
	// name in the solver registry (internal/solver: "qaoa", "gw",
	// "rqaoa", "best", "anneal", "random", "one-exchange", "exact",
	// plus anything registered at run time); defaults mirror
	// cmd/qaoa2 ("best" / "gw").
	Solver string `json:"solver,omitempty"`
	Merge  string `json:"merge,omitempty"`
	// Layers is the QAOA ansatz depth p for qaoa/best solvers
	// (0 = solver default, at most 64).
	Layers int    `json:"layers,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Priority selects the queue lane ("normal" default, "high").
	Priority string `json:"priority,omitempty"`
	// Parallelism is the requested runtime worker budget; it is
	// clamped to the server's per-job cap (0 = the full cap).
	Parallelism int `json:"parallelism,omitempty"`
}

// normalize applies defaults and validates everything except the graph
// (built separately so the fingerprint is computed once). A problem
// submission is materialized here: the Hamiltonian's MaxCut reduction
// becomes r.Graph deterministically, so persistence, restore, JobKey
// fleet routing and checkpoint fingerprints all operate on the same
// concrete instance. Re-normalizing an already-normalized request
// recomputes the identical graph (the derivation is pure), which is
// what lets restore verify persisted job keys.
func (r SolveRequest) normalize() (SolveRequest, error) {
	if r.Layers > maxLayers {
		return r, fmt.Errorf("serve: %d layers, limit %d", r.Layers, maxLayers)
	}
	if r.Problem != nil {
		p, err := r.Problem.Build()
		if err != nil {
			return r, err
		}
		g, err := p.H.ToMaxCut()
		if err != nil {
			return r, err
		}
		r.Graph = GraphSpecOf(g)
	}
	if r.MaxQubits <= 0 {
		r.MaxQubits = 16
	}
	if r.Solver == "" {
		r.Solver = "best"
	}
	if r.Merge == "" {
		r.Merge = "gw"
	}
	switch r.Priority {
	case "":
		r.Priority = PriorityNormal
	case PriorityNormal, PriorityHigh:
	default:
		return r, fmt.Errorf("serve: unknown priority %q (want %q or %q)",
			r.Priority, PriorityNormal, PriorityHigh)
	}
	if r.Parallelism < 0 {
		return r, fmt.Errorf("serve: negative parallelism %d", r.Parallelism)
	}
	return r, nil
}

// key fingerprints the result-determining fields of a normalized
// request over the given graph fingerprint. It is the job ID: two
// submissions with equal keys are the same solve. It digests a header
// of its own (no Version; Config "layers:N[;problem:…]") with
// runtime.Header.Fingerprint. The job's checkpoint header is a second
// identity: it carries the checkpoint version and the built solvers'
// ConfigTags, and only it decides whether a parked job's checkpoint
// resumes.
func (r SolveRequest) key(graphFP string) string {
	cfg := fmt.Sprintf("layers:%d", r.Layers)
	if r.Problem != nil {
		// Problems fold their canonical JSON into the identity: two raw
		// Hamiltonians differing only in Offset reduce to the same graph
		// but are different solves with different decoded answers.
		cfg += ";problem:" + r.Problem.canonical()
	}
	return rt.Header{
		Graph:     graphFP,
		Seed:      r.Seed,
		MaxQubits: r.MaxQubits,
		Solver:    r.Solver,
		Merge:     r.Merge,
		Config:    cfg,
	}.Fingerprint()
}

// JobKey computes the fingerprint job id any server will assign this
// request: normalize, build the graph, fingerprint the key header (see
// key). Fingerprints are location-independent, so the fleet front
// door routes on the id computed here knowing it equals the id every
// worker's result cache and checkpoint file name use.
func (r SolveRequest) JobKey() (string, error) {
	n, err := r.normalize()
	if err != nil {
		return "", err
	}
	g, err := n.Graph.Build()
	if err != nil {
		return "", err
	}
	return n.key(rt.GraphFingerprint(g)), nil
}

// Solvers binds a request to the concrete sub-graph and merge-graph
// solvers the runtime will run.
type Solvers struct {
	Sub   solver.Solver
	Merge solver.Solver
}

// SolverSpec maps a request's solver-shaping fields onto the registry
// spec for one role's name — the single place the wire format meets
// the solver plane. The same registry serves cmd/qaoa2's flags, so
// the HTTP and CLI surfaces can never drift apart on what a solver
// name means.
func (r SolveRequest) SolverSpec(name string) solver.Spec {
	return solver.Spec{Name: name, Layers: r.Layers, Seed: r.Seed}
}

// ResolveSolvers builds a request's solvers through the registry
// (internal/solver). Config.Resolve overrides it (tests inject gated
// or instrumented solvers there).
func ResolveSolvers(req SolveRequest) (Solvers, error) {
	sub, err := solver.Build(req.SolverSpec(req.Solver))
	if err != nil {
		return Solvers{}, fmt.Errorf("serve: %w", err)
	}
	merge, err := solver.Build(req.SolverSpec(req.Merge))
	if err != nil {
		return Solvers{}, fmt.Errorf("serve: merge: %w", err)
	}
	return Solvers{Sub: sub, Merge: merge}, nil
}

// Event is one task-completion progress event of a job, streamed over
// NDJSON at GET /v1/jobs/{id}/events: the executor's event stamped
// with its sequence number. Seq is 1-based and strictly increasing per
// job; subscribers that attach mid-run replay the prefix first, so
// every subscriber observes the identical sequence.
type Event struct {
	Seq int `json:"seq"`
	rt.Event
}
