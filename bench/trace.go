package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
	"qaoa2/internal/synth"
)

// span is one timed call into a layer, recorded from outside the
// program by the decorators below. IDs are 1-based; Parent 0 marks a
// root. Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Solve  int64  `json:"solve"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the computed (not measured) statevector traffic of a
	// backend evaluation; 0 elsewhere.
	Bytes int64 `json:"bytes_computed,omitempty"`
}

// tracer keeps spans in memory until the traced phase ends.
type tracer struct {
	t0 time.Time
	// root and solve are the span and solve id new top-level solver
	// spans attach to: the harness sets them around each traced solve.
	root  atomic.Int64
	solve atomic.Int64

	mu    sync.Mutex
	spans []span
	// open holds, per graph a solver is working on, the stack of open
	// solver spans: the sub-graph pointer is the one value a leaf
	// solver, a best-of member and the backend's Prepare all receive,
	// so it links them without goroutine-local state.
	open map[*graph.Graph][]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[*graph.Graph][]int64)}
}

// begin opens a span under parent and returns its id. A span inherits
// its parent's solve id; a root (parent 0) takes the tracer's current.
func (t *tracer) begin(name, layer string, parent int64) int64 {
	return t.start(name, layer, parent, t.solve.Load())
}

// beginSolve opens a root span of the given solve.
func (t *tracer) beginSolve(name, layer string, solve int64) int64 {
	return t.start(name, layer, 0, solve)
}

func (t *tracer) start(name, layer string, parent, solve int64) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent > 0 {
		solve = t.spans[parent-1].Solve
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Solve: solve,
		Name: name, Layer: layer, Start: now, End: now,
	})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) { t.endBytes(id, 0) }

// endBytes closes a span and attaches its computed traffic.
func (t *tracer) endBytes(id, bytes int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
}

// innermost returns the open solver span working on g, or fallback.
func (t *tracer) innermost(g *graph.Graph, fallback int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.open[g]; len(st) > 0 {
		return st[len(st)-1]
	}
	return fallback
}

func (t *tracer) push(g *graph.Graph, id int64) {
	t.mu.Lock()
	t.open[g] = append(t.open[g], id)
	t.mu.Unlock()
}

func (t *tracer) pop(g *graph.Graph) {
	t.mu.Lock()
	if st := t.open[g]; len(st) <= 1 {
		delete(t.open, g)
	} else {
		t.open[g] = st[:len(st)-1]
	}
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span (in the order given), its duration minus
// the part of its interval covered by those of its children present. Children are clipped to
// the parent and overlapping children are counted once, so parallel
// children never push self time below zero.
func selfTimes(spans []span) []int64 {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanStats aggregates a trace: call counts, total durations and total
// self time per span name, and the total duration of the roots.
type spanStats struct {
	count, total, self map[string]int64
	rootTotal          int64
}

func summarize(spans []span) spanStats {
	st := spanStats{
		count: map[string]int64{}, total: map[string]int64{}, self: map[string]int64{},
	}
	self := selfTimes(spans)
	for i, s := range spans {
		st.count[s.Name]++
		st.total[s.Name] += s.End - s.Start
		st.self[s.Name] += self[i]
		if s.Parent == 0 {
			st.rootTotal += s.End - s.Start
		}
	}
	return st
}

// timedSolver records one span per SolveSub call of the solver it
// wraps. It forwards attribution, so composite solvers still report
// their winner, and it passes the caller's rng through untouched: a
// wrapped solve returns the same cut as an unwrapped one.
type timedSolver struct {
	inner       solver.Solver
	tr          *tracer
	name, layer string
	// parent pins the parent span (serve-mix: the client request that
	// caused the job); 0 attaches to the innermost open solver span on
	// the same graph, else to the tracer's current root.
	parent int64
}

func (s timedSolver) Name() string { return s.inner.Name() }

func (s timedSolver) open(g *graph.Graph) int64 {
	parent := s.parent
	if parent == 0 {
		parent = s.tr.innermost(g, s.tr.root.Load())
	}
	id := s.tr.begin(s.name, s.layer, parent)
	s.tr.push(g, id)
	return id
}

func (s timedSolver) close(g *graph.Graph, id int64) {
	s.tr.pop(g)
	s.tr.end(id)
}

func (s timedSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	id := s.open(g)
	defer s.close(g, id)
	return s.inner.SolveSub(g, r)
}

func (s timedSolver) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, solver.Report, error) {
	id := s.open(g)
	defer s.close(g, id)
	return solver.SolveAttributed(s.inner, g, r)
}

// timedBackend records Prepare and hands out ansätze that record every
// evaluation under the solver span that prepared them.
type timedBackend struct {
	inner backend.Backend
	tr    *tracer
}

func (b timedBackend) Name() string { return b.inner.Name() }

func (b timedBackend) Prepare(g *graph.Graph, cfg backend.Config) (backend.Ansatz, error) {
	parent := b.tr.innermost(g, b.tr.root.Load())
	id := b.tr.begin("backend.prepare", "backend", parent)
	a, err := b.inner.Prepare(g, cfg)
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	ta := timedAnsatz{inner: a, tr: b.tr, parent: parent, bytes: evalBytes(g.N(), cfg.Layers, b.inner)}
	if be, ok := a.(backend.BatchEvaluator); ok {
		return timedBatchAnsatz{timedAnsatz: ta, batch: be}, nil
	}
	return ta, nil
}

// evalBytes computes (it does not measure) the statevector traffic of
// one evaluation: per layer one diagonal phase pass and one mixer pass,
// each reading and writing every stored amplitude once (16 B each); the
// fused backend stores 2^(n-1) amplitudes unless the Z2 reduction is
// off.
func evalBytes(n, layers int, b backend.Backend) int64 {
	stored := n
	if f, ok := b.(backend.Fused); ok && !f.Full && n >= 2 && os.Getenv("QAOA2_NOZ2") == "" {
		stored = n - 1
	}
	return int64(layers) * 2 * 2 * 16 << uint(stored)
}

type timedAnsatz struct {
	inner  backend.Ansatz
	tr     *tracer
	parent int64
	bytes  int64
}

func (a timedAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	id := a.tr.begin("backend.evaluate", "backend", a.parent)
	e, st, err := a.inner.Evaluate(gammas, betas)
	a.tr.endBytes(id, a.bytes)
	return e, st, err
}

func (a timedAnsatz) Diagonal() []float64  { return a.inner.Diagonal() }
func (a timedAnsatz) Layout() []int        { return a.inner.Layout() }
func (a timedAnsatz) Report() synth.Report { return a.inner.Report() }

// timedBatchAnsatz is handed out when the wrapped ansatz batches, so
// backend.EvaluateBatch keeps taking the native path.
type timedBatchAnsatz struct {
	timedAnsatz
	batch backend.BatchEvaluator
}

func (a timedBatchAnsatz) EvaluateBatch(gammas, betas [][]float64, energies []float64) error {
	id := a.tr.begin("backend.evaluate_batch", "backend", a.parent)
	defer a.tr.end(id)
	return a.batch.EvaluateBatch(gammas, betas, energies)
}

// instrument rebuilds s with timing decorators on every solver and
// backend boundary the harness knows: plain qaoa and gw solvers, and
// best-of over them. role names the outer span ("leaf" or "merge").
func instrument(s solver.Solver, tr *tracer, role string, parent int64) timedSolver {
	ts := instrumentInner(s, tr)
	ts.parent = parent
	if role == "merge" {
		ts.name, ts.layer = "qaoa2.merge_solve", "merge"
	}
	return ts
}

func instrumentInner(s solver.Solver, tr *tracer) timedSolver {
	switch v := s.(type) {
	case solver.QAOASolver:
		inner := v.Opts.Backend
		if inner == nil {
			inner = backend.Default(v.Opts.Synthesis)
		}
		v.Opts.Backend = timedBackend{inner: inner, tr: tr}
		return timedSolver{inner: v, tr: tr, name: "qaoa.leaf_solve", layer: "qaoa"}
	case solver.BestOfSolver:
		members := make([]solver.Solver, len(v.Solvers))
		for i, m := range v.Solvers {
			members[i] = instrumentInner(m, tr)
		}
		return timedSolver{inner: solver.BestOfSolver{Solvers: members}, tr: tr, name: "solver.best", layer: "solver"}
	default:
		return timedSolver{inner: s, tr: tr, name: s.Name() + ".leaf_solve", layer: s.Name()}
	}
}
