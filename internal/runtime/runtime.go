// Package runtime is the QAOA² executor: the one implementation of
// partition → sub-solve → merge-build → merge-solve → stitch (paper
// §3.3), and the real counterpart of the virtual-time schedule
// simulated by internal/hpc (paper Fig. 2). A solve unfolds into a DAG
// of those tasks; a fixed worker pool (Options.Parallelism, the pool of
// quantum devices and classical nodes) runs ready tasks as dependencies
// drain, streams every completed sub-report to the caller, and appends
// completed solves to an on-disk Checkpoint so an interrupted run
// resumes without re-solving finished sub-graphs. qaoa2.Solve fills in
// defaults and calls Solve.
//
// The computation tree is a function of (graph, seed, solver config)
// only — per-task randomness derives from the task's position, never
// from scheduling — so results are bit-identical at every parallelism
// and checkpoint entries are transferable between processes.
package runtime

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/partition"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// Options configures Solve. Solver and MergeSolver are required — the
// qaoa2 facade fills its defaults before delegating here.
type Options struct {
	// MaxQubits is the sub-graph node cap (default 16).
	MaxQubits int
	// Solver handles first-level sub-graphs.
	Solver solver.Solver
	// MergeSolver handles merge graphs on every level.
	MergeSolver solver.Solver
	// Parallelism is the worker-pool size — the real admission
	// control: at most this many tasks, in particular concurrent
	// sub-graph solves, run at once (default GOMAXPROCS).
	Parallelism int
	// Partition overrides the first-level graph division.
	Partition [][]int
	// Seed derives every task's deterministic random stream.
	Seed uint64
	// CheckpointPath, when set, names the checkpoint Solve opens (or
	// resumes), consults before every solve task, appends to after, and
	// closes on return.
	CheckpointPath string
	// ConfigTag fingerprints solver configuration that is invisible to
	// Solver.Name() (qaoa2 passes each role's solver.ConfigTag). It is
	// folded into the checkpoint header so stale checkpoints never
	// resume.
	ConfigTag string
	// OnEvent, when set, receives one event per completed task, in
	// completion order. Calls are serialized.
	OnEvent func(Event)
	// Interrupt aborts the run when closed: no new task starts, and
	// Solve returns ErrInterrupted once in-flight tasks finish. The
	// checkpoint keeps everything completed before the abort.
	Interrupt <-chan struct{}
}

// Event reports one completed task. Its JSON form is the solve
// service's NDJSON event record (internal/serve).
type Event struct {
	// Task is the stable task id, also the checkpoint key for solve
	// tasks (e.g. "s0/sub3", "s2/merge").
	Task string `json:"task"`
	// Kind is the task kind ("partition", "sub-solve", "merge-build",
	// "merge-solve", "stitch").
	Kind string `json:"kind"`
	// Stage is the divide-and-conquer level (0 = original graph).
	Stage int `json:"stage"`
	// Index is the sub-graph index within the stage; -1 otherwise.
	Index int `json:"index"`
	// Nodes/Edges size the task's graph.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Value is the cut value for solve tasks.
	Value float64 `json:"value,omitempty"`
	// Solver names the solver that produced the cut for solve tasks —
	// for composite strategies, the winning member (the checkpoint
	// records the same name, so restored events re-attribute
	// identically).
	Solver string `json:"solver,omitempty"`
	// Attempts carries the per-member attribution of a composite
	// solve, with per-attempt timing (nil for plain solvers and for
	// restored results).
	Attempts []solver.Attempt `json:"attempts,omitempty"`
	// Nanos is the task's wall time (0 for restored results): the
	// solver call of a solve task, the whole task of the others.
	// Timing is telemetry: it never enters checkpoints or result
	// identity.
	Nanos int64 `json:"nanos,omitempty"`
	// Worker is the pool worker that ran the task, in
	// [0, Options.Parallelism). Like Nanos it is telemetry: scheduling
	// decides it, so it never enters checkpoints, result identity or
	// the wire.
	Worker int `json:"-"`
	// Restored marks results served from the checkpoint.
	Restored bool `json:"restored,omitempty"`
}

// Stats summarizes a run.
type Stats struct {
	// Tasks counts DAG tasks executed.
	Tasks int
	// SubSolves and MergeSolves count actual solver invocations;
	// Restored counts solves served from the checkpoint instead.
	SubSolves, MergeSolves, Restored int
	// Stages is the number of divide levels unfolded (1 for a
	// single-partition run, 0 for a direct solve).
	Stages int
}

// SubReport records one solved sub-graph at the first level. Its JSON
// form is the solve service's per-sub-graph report (internal/serve).
type SubReport struct {
	Nodes int     `json:"nodes"` // sub-graph size
	Edges int     `json:"edges"` // sub-graph edge count
	Value float64 `json:"value"` // cut value found by the solver
	// Solver names the solver that actually produced the kept cut:
	// for a composite (best, the density router) this is the
	// WINNING member, so the report exposes the per-sub-graph
	// quantum-vs-classical decision directly.
	Solver string `json:"solver"`
	// Attempts details every inner try of a composite solve, with
	// per-attempt timing (nil for plain solvers, and for solves
	// restored from a checkpoint — timing is telemetry, not identity).
	Attempts []solver.Attempt `json:"attempts,omitempty"`
}

// Result reports a QAOA² run.
type Result struct {
	Cut maxcut.Cut
	// Levels is the number of merge levels used (0 when the graph fit
	// directly on the device).
	Levels int
	// SubGraphs counts the first-level sub-graphs.
	SubGraphs int
	// SubReports details every first-level sub-graph solve.
	SubReports []SubReport
	// IntraCut is the weight cut inside sub-graphs before merging;
	// CrossCut is the weight cut across sub-graphs after the merge
	// flips. Their sum equals Cut.Value.
	IntraCut, CrossCut float64
	// Stats counts what the run executed. Restored depends on the
	// checkpoint a run found, so Stats is not part of result identity.
	Stats Stats
}

// stage is one divide level: stage 0 is the original graph, stage k+1
// the signed contraction of stage k.
type stage struct {
	index  int
	g      *graph.Graph
	seed   uint64
	solver solver.Solver

	parts   [][]int
	streams []rng.Rand // sub-solve i's stream
	cuts    []maxcut.Cut
	reports []SubReport
	groupOf []int
	merged  *graph.Graph
	// flips orients each part: set by the deepest stage's merge solve,
	// then propagated downward by the stitch task.
	flips []int8
}

// solveState carries one run's shared state. Cross-task visibility is
// ordered by the executor's dependency edges; mu guards only the
// append-side of stages, stats and the event stream.
type solveState struct {
	opts Options
	exec *executor
	ckpt *Checkpoint

	mu     sync.Mutex
	stages []*stage
	stats  Stats
	result *Result
}

// Solve runs the QAOA² divide-and-conquer on g: it applies the option
// defaults, opens the checkpoint, schedules the root task(s) and drives
// the task graph to its result.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Solver == nil || opts.MergeSolver == nil {
		return nil, fmt.Errorf("runtime: Solver and MergeSolver are required")
	}
	if opts.MaxQubits <= 0 {
		opts.MaxQubits = 16
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if g.N() == 0 {
		return &Result{Cut: maxcut.Cut{Spins: []int8{}, Value: 0}}, nil
	}

	var ckpt *Checkpoint
	if opts.CheckpointPath != "" {
		var err error
		ckpt, err = OpenCheckpoint(opts.CheckpointPath, Header{
			Graph:     GraphFingerprint(g),
			Seed:      opts.Seed,
			MaxQubits: opts.MaxQubits,
			Solver:    opts.Solver.Name(),
			Merge:     opts.MergeSolver.Name(),
			Config:    opts.ConfigTag + partitionTag(opts.Partition),
		})
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}

	st := &solveState{opts: opts, ckpt: ckpt}
	st.exec = newExecutor(opts.Interrupt)
	if g.N() <= opts.MaxQubits && opts.Partition == nil {
		st.exec.add(&task{run: func(_, w int) error { return st.runDirect(g, w) }}, nil)
	} else {
		if err := validatePartition(opts.Partition, opts.MaxQubits); err != nil {
			return nil, err
		}
		st.addStage(g, opts.Seed, opts.Solver, opts.Partition)
	}
	st.exec.start(opts.Parallelism)
	if err := st.exec.wait(); err != nil {
		return nil, err
	}
	if st.result == nil {
		return nil, fmt.Errorf("runtime: task graph drained without a result")
	}
	st.result.Stats = st.stats
	return st.result, nil
}

// validatePartition rejects an explicit partition with an empty or
// over-budget part before any task runs.
func validatePartition(parts [][]int, maxQubits int) error {
	for i, p := range parts {
		if len(p) == 0 {
			return fmt.Errorf("runtime: explicit partition part %d is empty", i)
		}
		if len(p) > maxQubits {
			return fmt.Errorf("runtime: explicit partition part %d has %d nodes, budget %d",
				i, len(p), maxQubits)
		}
	}
	return nil
}

// partitionTag fingerprints an explicit partition for the checkpoint
// header ("" when the deterministic partitioner is used).
func partitionTag(parts [][]int) string {
	if parts == nil {
		return ""
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(parts)))
	for _, p := range parts {
		put(uint64(len(p)))
		for _, v := range p {
			put(uint64(v))
		}
	}
	return fmt.Sprintf("|parts:%016x", h.Sum64())
}

// runDirect handles a graph that fits the device: a single solve task.
func (st *solveState) runDirect(g *graph.Graph, worker int) error {
	sv, err := st.solveTask("s0/direct", g, st.opts.Solver, rng.New(st.opts.Seed))
	if err != nil {
		return err
	}
	if len(sv.cut.Spins) != g.N() {
		return fmt.Errorf("runtime: graph has %d nodes but cut has %d spins", g.N(), len(sv.cut.Spins))
	}
	st.mu.Lock()
	st.result = &Result{
		Cut:        sv.cut,
		SubGraphs:  1,
		SubReports: []SubReport{sv.report(g)},
		IntraCut:   sv.cut.Value,
	}
	st.mu.Unlock()
	st.finishSolve(Event{Task: "s0/direct", Kind: kindSubSolve.String(), Stage: 0, Index: 0}, g, sv, worker)
	return nil
}

// solved is one completed solve task: the cut, the winning solver's
// name (the checkpoint identity), and the run-only telemetry.
type solved struct {
	cut      maxcut.Cut
	winner   string
	attempts []solver.Attempt
	nanos    int64
	restored bool
}

// report is the solve's first-level sub-graph report.
func (sv solved) report(g *graph.Graph) SubReport {
	return SubReport{Nodes: g.N(), Edges: g.M(), Value: sv.cut.Value,
		Solver: sv.winner, Attempts: sv.attempts}
}

// finishSolve counts a completed solve task — a solver call of its
// kind, or a restore — and streams its event: ev names the task, the
// rest comes from g and sv.
func (st *solveState) finishSolve(ev Event, g *graph.Graph, sv solved, worker int) {
	st.mu.Lock()
	st.stats.Tasks++
	switch {
	case sv.restored:
		st.stats.Restored++
	case ev.Kind == kindMergeSolve.String():
		st.stats.MergeSolves++
	default:
		st.stats.SubSolves++
	}
	st.mu.Unlock()
	ev.Nodes, ev.Edges, ev.Value = g.N(), g.M(), sv.cut.Value
	ev.Solver, ev.Attempts, ev.Nanos = sv.winner, sv.attempts, sv.nanos
	ev.Worker, ev.Restored = worker, sv.restored
	st.emit(ev)
}

// taskKey is the stable id of a stage's task: its event's Task and, for
// a solve task, its checkpoint key. It is "" when nothing reads it — no
// OnEvent, and no checkpoint or not a solve task — so an unobserved
// solve formats no key. The direct solve and the stitch have the fixed
// ids "s0/direct" and "stitch".
func (st *solveState) taskKey(kind taskKind, stage, index int) string {
	checkpointed := st.ckpt != nil && (kind == kindSubSolve || kind == kindMergeSolve)
	if st.opts.OnEvent == nil && !checkpointed {
		return ""
	}
	switch kind {
	case kindPartition:
		return fmt.Sprintf("s%d/partition", stage)
	case kindSubSolve:
		return fmt.Sprintf("s%d/sub%d", stage, index)
	case kindMergeBuild:
		return fmt.Sprintf("s%d/merge-build", stage)
	default:
		return fmt.Sprintf("s%d/merge", stage)
	}
}

// solveTask runs one checkpointable solve: checkpoint lookup first,
// solver otherwise, record after. The checkpoint stores the WINNER's
// name, so a restored composite solve re-attributes to the member
// that actually produced the cut; attempts and timing are telemetry
// of the run that solved, never of a restore.
func (st *solveState) solveTask(key string, g *graph.Graph, s solver.Solver, r *rng.Rand) (solved, error) {
	if st.ckpt != nil {
		if rec, ok := st.ckpt.Lookup(key); ok && len(rec.Cut.Spins) == g.N() {
			name := rec.Solver
			if name == "" {
				name = s.Name()
			}
			return solved{cut: rec.Cut, winner: name, restored: true}, nil
		}
	}
	start := time.Now()
	cut, rep, err := solver.SolveAttributed(s, g, r)
	if err != nil {
		return solved{}, err
	}
	nanos := time.Since(start).Nanoseconds()
	if st.ckpt != nil {
		if err := st.ckpt.Record(key, Record{Cut: cut, Solver: rep.Winner}); err != nil {
			return solved{}, err
		}
	}
	return solved{cut: cut, winner: rep.Winner, attempts: rep.Attempts, nanos: nanos}, nil
}

// addStage appends a new divide level and schedules its partition task.
// Safe to call before the pool starts and from inside tasks.
func (st *solveState) addStage(g *graph.Graph, seed uint64, s solver.Solver, explicit [][]int) {
	st.mu.Lock()
	sg := &stage{index: len(st.stages), g: g, seed: seed, solver: s}
	st.stages = append(st.stages, sg)
	st.stats.Stages++
	st.mu.Unlock()
	st.exec.add(&task{run: func(_, w int) error { return st.runPartition(sg, explicit, w) }}, nil)
}

// cover maps every node of the stage's graph to the part holding it,
// rejecting anything but a disjoint cover.
func (sg *stage) cover(parts [][]int) ([]int, error) {
	groupOf := make([]int, sg.g.N())
	for i := range groupOf {
		groupOf[i] = -1
	}
	for i, part := range parts {
		for _, v := range part {
			if v < 0 || v >= sg.g.N() {
				return nil, fmt.Errorf("runtime: stage %d part %d references node %d outside graph",
					sg.index, i, v)
			}
			if groupOf[v] != -1 {
				return nil, fmt.Errorf("runtime: stage %d node %d appears in two parts", sg.index, v)
			}
			groupOf[v] = i
		}
	}
	for v, grp := range groupOf {
		if grp == -1 {
			return nil, fmt.Errorf("runtime: stage %d node %d not covered by any part", sg.index, v)
		}
	}
	return groupOf, nil
}

// runPartition divides a stage's graph and schedules one sub-solve
// task per part plus the merge-build barrier behind them.
func (st *solveState) runPartition(sg *stage, explicit [][]int, worker int) error {
	start := time.Now()
	parts := explicit
	if parts == nil {
		var err error
		parts, err = partition.SizeCapped(sg.g, st.opts.MaxQubits)
		if err != nil {
			return err
		}
	}
	groupOf, err := sg.cover(parts)
	if err != nil {
		return err
	}
	sg.parts, sg.groupOf = parts, groupOf
	sg.cuts = make([]maxcut.Cut, len(parts))
	sg.reports = make([]SubReport, len(parts))

	// Report before scheduling: a successor may finish, and report,
	// before this task returns.
	st.mu.Lock()
	st.stats.Tasks++
	st.mu.Unlock()
	st.emit(Event{Task: st.taskKey(kindPartition, sg.index, -1), Kind: kindPartition.String(),
		Stage: sg.index, Index: -1, Nodes: sg.g.N(), Edges: sg.g.M(),
		Nanos: time.Since(start).Nanoseconds(), Worker: worker})

	// One array of sub-tasks sharing one function, and one of their
	// streams; each solves its part on its own stream.
	subs := make([]task, len(parts))
	sg.streams = make([]rng.Rand, len(parts))
	runSub := func(i, w int) error { return st.runSub(sg, i, w) }
	for i := range subs {
		subs[i] = task{run: runSub, part: i}
		sg.streams[i] = *rng.New(sg.seed).Split(uint64(i) + 0x9e37)
	}
	mergeT := &task{run: func(_, w int) error { return st.runMergeBuild(sg, w) }}
	// Register the barrier before its dependencies so the executor
	// never observes a drained graph between sub-task completions.
	st.exec.add(mergeT, subs)
	for i := range subs {
		st.exec.add(&subs[i], nil)
	}
	return nil
}

// runSub solves one sub-graph of a stage.
func (st *solveState) runSub(sg *stage, i, worker int) error {
	sub, _, err := sg.g.InducedSubgraph(sg.parts[i])
	if err != nil {
		return err
	}
	key := st.taskKey(kindSubSolve, sg.index, i)
	sv, err := st.solveTask(key, sub, sg.solver, &sg.streams[i])
	if err != nil {
		return fmt.Errorf("runtime: stage %d sub-graph %d: %w", sg.index, i, err)
	}
	if len(sv.cut.Spins) != len(sg.parts[i]) {
		return fmt.Errorf("runtime: stage %d part %d has %d nodes but cut has %d spins",
			sg.index, i, len(sg.parts[i]), len(sv.cut.Spins))
	}
	sg.cuts[i] = sv.cut
	sg.reports[i] = sv.report(sub)
	st.finishSolve(Event{Task: key, Kind: kindSubSolve.String(), Stage: sg.index, Index: i}, sub, sv, worker)
	return nil
}

// runMergeBuild builds the signed contracted graph of a stage and
// decides how to orient it: trivially (edgeless), by a merge solve
// (fits the device), by local search (contraction stalled) or by
// unfolding the next stage.
func (st *solveState) runMergeBuild(sg *stage, worker int) error {
	start := time.Now()
	spins := make([]int8, sg.g.N())
	for i, part := range sg.parts {
		for k, orig := range part {
			spins[orig] = sg.cuts[i].Spins[k]
		}
	}
	merged, err := sg.g.Contract(sg.groupOf, len(sg.parts), func(e graph.Edge) float64 {
		if spins[e.I] != spins[e.J] {
			return -e.W
		}
		return e.W
	})
	if err != nil {
		return err
	}
	sg.merged = merged
	st.mu.Lock()
	st.stats.Tasks++
	st.mu.Unlock()
	st.emit(Event{Task: st.taskKey(kindMergeBuild, sg.index, -1), Kind: kindMergeBuild.String(),
		Stage: sg.index, Index: -1, Nodes: merged.N(), Edges: merged.M(),
		Nanos: time.Since(start).Nanoseconds(), Worker: worker})

	switch {
	case merged.M() == 0:
		// No cross weight to gain: keep every part's orientation.
		// (Also the recursion guard: an edgeless merge graph would
		// never contract further.)
		sg.flips = make([]int8, merged.N())
		for i := range sg.flips {
			sg.flips[i] = 1
		}
		st.scheduleStitch(sg.index)
	case merged.N() <= st.opts.MaxQubits:
		st.exec.add(&task{run: func(_, w int) error { return st.runMergeSolve(sg, w) }}, nil)
	case merged.N() >= sg.g.N():
		// Contraction made no progress (all-singleton partition):
		// recursing would loop forever. Orient the merge nodes with
		// the deterministic 1-exchange local search instead.
		cut := maxcut.OneExchange(merged, rng.New(sg.seed).Split(0x1e4c))
		sg.flips = cut.Spins
		st.scheduleStitch(sg.index)
	default:
		st.addStage(merged, sg.seed^0xabcd, st.opts.MergeSolver, nil)
	}
	return nil
}

// runMergeSolve orients the deepest stage's merge graph.
func (st *solveState) runMergeSolve(sg *stage, worker int) error {
	key := st.taskKey(kindMergeSolve, sg.index, -1)
	sv, err := st.solveTask(key, sg.merged, st.opts.MergeSolver,
		rng.New(sg.seed).Split(0x51ed))
	if err != nil {
		return fmt.Errorf("runtime: stage %d merge: %w", sg.index, err)
	}
	if len(sv.cut.Spins) != sg.merged.N() {
		return fmt.Errorf("runtime: stage %d merge cut has %d spins for %d nodes",
			sg.index, len(sv.cut.Spins), sg.merged.N())
	}
	sg.flips = sv.cut.Spins
	st.finishSolve(Event{Task: key, Kind: kindMergeSolve.String(), Stage: sg.index, Index: -1}, sg.merged, sv, worker)
	st.scheduleStitch(sg.index)
	return nil
}

// scheduleStitch adds the final task folding flips down from the
// deepest stage into the global assignment.
func (st *solveState) scheduleStitch(deepest int) {
	st.exec.add(&task{run: func(_, w int) error { return st.runStitch(deepest, w) }}, nil)
}

// runStitch resolves the stage chain bottom-up: a stage's stitched
// spins are exactly the flip orientation of the stage below it.
func (st *solveState) runStitch(deepest, worker int) error {
	start := time.Now()
	var spins []int8
	for k := deepest; k >= 0; k-- {
		sg := st.stages[k]
		spins = make([]int8, sg.g.N())
		for i, part := range sg.parts {
			flip := sg.flips[i] < 0
			for j, orig := range part {
				s := sg.cuts[i].Spins[j]
				if flip {
					s = -s
				}
				spins[orig] = s
			}
		}
		if k > 0 {
			st.stages[k-1].flips = spins
		}
	}
	root := st.stages[0]
	intra := 0.0
	for _, e := range root.g.Edges() {
		if root.groupOf[e.I] == root.groupOf[e.J] && spins[e.I] != spins[e.J] {
			intra += e.W
		}
	}
	value := root.g.CutValue(spins)
	st.mu.Lock()
	st.stats.Tasks++
	st.result = &Result{
		Cut:        maxcut.Cut{Spins: spins, Value: value},
		Levels:     deepest + 1,
		SubGraphs:  len(root.parts),
		SubReports: append([]SubReport(nil), root.reports...),
		IntraCut:   intra,
		CrossCut:   value - intra,
	}
	st.mu.Unlock()
	st.emit(Event{Task: "stitch", Kind: kindStitch.String(), Stage: 0, Index: -1,
		Nodes: root.g.N(), Edges: root.g.M(), Value: value,
		Nanos: time.Since(start).Nanoseconds(), Worker: worker})
	return nil
}

// emit streams an event; calls are serialized by st.mu.
func (st *solveState) emit(ev Event) {
	if st.opts.OnEvent == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.opts.OnEvent(ev)
}
