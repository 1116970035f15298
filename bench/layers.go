package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/opt"
	"qaoa2/internal/partition"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/qsim"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// layerMetrics is the per-layer table of one traced pass, by name.
type layerMetrics map[string]float64

// attemptStats sums the attribution of composite (best-of) leaf solves.
type attemptStats struct {
	attempts, composite, qaoaWins int
	wastedNs                      int64
}

func (a *attemptStats) add(winner string, attempts []solver.Attempt) {
	if len(attempts) == 0 {
		return
	}
	a.composite++
	a.attempts += len(attempts)
	if winner == "qaoa" {
		a.qaoaWins++
	}
	for _, at := range attempts {
		if at.Solver != winner {
			a.wastedNs += at.Nanos
		}
	}
}

// runTraced is the traced pass: it measures each layer from outside by
// calling its public functions on the workload's own inputs, then runs
// cfg.reps solves with every solver and backend boundary wrapped in a
// timing decorator, and writes every span to trace-<workload>.jsonl.
// The span-based rows come from the fastest traced solve (batch), whole:
// its layers then sum to its own wall time, and a burst of host noise
// during another repetition does not land in one layer's row.
func runTraced(cfg phaseConfig) (phaseResult, error) {
	res := phaseResult{Phase: cfg.phase, Layer: layerMetrics{}}
	tr := newTracer()
	run, st, err := setup(cfg.w, cfg.seed, cfg.smoke, 1, tr)
	if err != nil {
		return res, err
	}
	defer run.close()
	L := layerMetrics(res.Layer)
	L["solver.build_s"] = st.build.Seconds()
	measureKernels(L)

	var best tracedUnit
	switch r := run.(type) {
	case *libRunner:
		L["graph.gen_s"] = st.gen.Seconds() / float64(len(r.graphs))
		if err := measureGraphLayers(L, r.graphs[0], r.opts.MaxQubits); err != nil {
			return res, err
		}
		best, err = tracedLib(cfg, r, &res, L)
	case *serveRunner:
		L["graph.gen_s"] = st.gen.Seconds() / float64(len(r.sched.graphs))
		if err := measureGraphLayers(L, r.sched.graphs[0], r.sched.maxQ); err != nil {
			return res, err
		}
		best, err = tracedServe(cfg, r, &res, L)
	}
	if err != nil {
		return res, err
	}

	all := tr.snapshot()
	var spans []span
	for _, s := range all {
		if best.owns(s.Solve) {
			spans = append(spans, s)
		}
	}
	L["trace.solve_s"] = best.wall / float64(best.solves)
	spanMetrics(L, spans, best.solves)
	if att := best.att; att.composite > 0 {
		L["solver.attempts"] = float64(att.attempts) / float64(best.solves)
		L["solver.qaoa_win_share"] = float64(att.qaoaWins) / float64(att.composite)
		L["solver.wasted_attempt_s"] = float64(att.wastedNs) / 1e9 / float64(best.solves)
	}
	path := fmt.Sprintf("trace-%s.jsonl", cfg.w.name)
	if err := writeJSONL(path, all); err != nil {
		return res, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans of %d traced repetitions written to %s; per-layer rows from the fastest (%d spans, %d solves)",
		len(all), cfg.reps, path, len(spans), best.solves))
	return res, nil
}

// tracedUnit is one traced repetition: a solve, or a batch of jobs.
type tracedUnit struct {
	wall     float64
	solves   int
	att      attemptStats
	lo, hi   int64 // solve ids of its spans, lo <= id < hi
	measured bool
}

func (u tracedUnit) owns(solve int64) bool { return solve >= u.lo && solve < u.hi }

// keepFastest replaces best by u when u is the first or the faster.
func (best *tracedUnit) keepFastest(u tracedUnit) bool {
	if best.measured && best.wall <= u.wall {
		return false
	}
	*best = u
	best.measured = true
	return true
}

// tracedLib runs the traced solves of a library workload, all on
// instance 0, and returns the fastest.
func tracedLib(cfg phaseConfig, r *libRunner, res *phaseResult, L layerMetrics) (tracedUnit, error) {
	var best tracedUnit
	want := "" // the first traced solve's answer: the others must repeat it
	for i := 0; i < cfg.reps; i++ {
		t := time.Now()
		out, err := r.tracedRep(i)
		u := tracedUnit{wall: time.Since(t).Seconds(), solves: 1, lo: int64(i), hi: int64(i) + 1}
		if err != nil {
			return best, err
		}
		res.record(fmt.Sprintf("%s traced rep %d", cfg.w.name, i), out, want)
		if out.result == nil {
			continue
		}
		if want == "" {
			want = out.head
			res.Digests = []string{want}
		}
		for _, sr := range out.result.SubReports {
			u.att.add(sr.Solver, sr.Attempts)
		}
		if best.keepFastest(u) {
			res.CutRatio = out.cutRatio
			L["qaoa2.subgraphs"] = float64(out.result.SubGraphs)
			L["qaoa2.levels"] = float64(out.result.Levels)
			if cfg.w.runtime {
				L["runtime.events"] = float64(r.events)
				L["runtime.checkpoint_records"] = float64(r.ckpt.records)
				L["runtime.checkpoint_bytes"] = float64(r.ckpt.bytes)
			}
		}
	}
	if !best.measured {
		return best, fmt.Errorf("no traced solve succeeded: %v", res.Failures)
	}
	if cfg.w.runtime {
		return best, measureRuntime(L, cfg)
	}
	return best, nil
}

// tracedServe runs the traced batches. Batch 0 warms the server up; the
// later ones feed the latency rows, and the fastest of them the
// span-based rows.
func tracedServe(cfg phaseConfig, r *serveRunner, res *phaseResult, L layerMetrics) (tracedUnit, error) {
	var best tracedUnit
	var lat, hitLat, closedLoop []float64
	jobs, cached, coalesced, rejected, events := 0, 0, 0, 0, 0
	n := int64(len(r.sched.slots))
	for i := 0; i < cfg.reps; i++ {
		t := time.Now()
		out := r.batch(i, len(r.sched.slots), r.clients)
		u := tracedUnit{wall: time.Since(t).Seconds(), solves: out.solves, att: r.last.att, lo: int64(i) * n, hi: int64(i+1) * n}
		res.record(fmt.Sprintf("%s traced batch %d", cfg.w.name, i), out, "")
		if i == 0 {
			res.Digests = []string{out.head}
			res.CutRatio = out.cutRatio
			if cfg.reps > 1 {
				continue
			}
		}
		if len(out.failures) == 0 && best.keepFastest(u) {
			closedLoop = r.last.latency
		}
		jobs += out.solves
		lat = append(lat, r.last.latency...)
		for s, hit := range r.last.cached {
			if hit {
				cached++
				hitLat = append(hitLat, r.last.latency[s])
			}
		}
		coalesced += r.last.coalesced
		rejected += r.last.rejected
		events += r.last.events
	}
	if !best.measured {
		return best, fmt.Errorf("no traced batch succeeded: %v", res.Failures)
	}
	L["serve.jobs"] = float64(jobs)
	L["serve.latency_p50_s"] = quantile(lat, 0.5)
	L["serve.latency_p90_s"] = quantile(lat, 0.9)
	L["serve.cache_hit_share"] = float64(cached) / float64(jobs)
	L["serve.coalesced"] = float64(coalesced)
	L["serve.rejected"] = float64(rejected)
	L["serve.hit_latency_p50_s"] = quantile(hitLat, 0.5)
	L["serve.events_per_job"] = float64(events) / float64(jobs)
	L["serve.submit_body_kb"] = r.sched.bodyKB()
	res.Notes = append(res.Notes, fmt.Sprintf("serve latency percentiles over %d requests from a closed loop of %d clients; hit latency over %d cached answers", len(lat), r.clients, len(hitLat)))
	return best, measureServePaths(L, cfg, closedLoop)
}

// tracedRep is one solve of instance 0 under the tracer: the partition
// is computed here, under its own span, and handed to Solve, so the
// dividing step is timed from outside like every other layer.
func (r *libRunner) tracedRep(i int) (outcome, error) {
	g, _ := r.solveOpts(0)
	r.tr.solve.Store(int64(i))
	root := r.tr.begin("solve", "harness", 0)
	defer r.tr.end(root)
	pid := r.tr.begin("partition.size_capped", "partition", root)
	parts, err := partition.SizeCapped(g, r.opts.MaxQubits)
	r.tr.end(pid)
	if err != nil {
		return outcome{}, err
	}
	qid := r.tr.begin("qaoa2.solve", "qaoa2", root)
	defer r.tr.end(qid)
	r.tr.root.Store(qid)
	r.parts = parts
	defer func() { r.parts = nil }()
	return r.rep(i, 0), nil
}

// spanMetrics derives the span-based rows, per traced solve. Shares are
// of trace.solve_s, the harness's own wall time per traced solve.
func spanMetrics(L layerMetrics, spans []span, solves int) {
	st := summarize(spans)
	per := func(ns int64) float64 { return float64(ns) / 1e9 / float64(max(solves, 1)) }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	solve := L["trace.solve_s"]
	L["trace.spans"] = float64(len(spans))
	selfSum := int64(0)
	for _, ns := range st.self {
		selfSum += ns
	}
	L["trace.accounted_ratio"] = div(float64(selfSum), float64(st.rootTotal))

	evals := float64(st.count["backend.evaluate"])
	L["backend.evaluate_calls"] = evals / float64(max(solves, 1))
	L["backend.evaluate_s"] = per(st.total["backend.evaluate"])
	L["backend.evaluate_s_per_call"] = div(float64(st.total["backend.evaluate"])/1e9, evals)
	L["backend.batch_calls"] = float64(st.count["backend.evaluate_batch"]) / float64(max(solves, 1))
	L["backend.prepare_s"] = per(st.total["backend.prepare"])
	nameOf := make(map[int64]string, len(spans))
	for _, s := range spans {
		nameOf[s.ID] = s.Name
	}
	bytes, leafEvals := int64(0), 0
	for _, s := range spans {
		bytes += s.Bytes
		if s.Name == "backend.evaluate" && nameOf[s.Parent] == "qaoa.leaf_solve" {
			leafEvals++
		}
	}
	L["backend.bytes_per_eval_computed"] = div(float64(bytes), evals)

	L["qaoa.leaf_solve_s"] = per(st.total["qaoa.leaf_solve"])
	L["qaoa.evals_per_leaf"] = div(float64(leafEvals), float64(st.count["qaoa.leaf_solve"]))
	L["qaoa.self_s"] = per(st.self["qaoa.leaf_solve"])
	L["qaoa.self_share"] = div(L["qaoa.self_s"], solve)
	L["gw.calls"] = float64(st.count["gw.leaf_solve"]) / float64(max(solves, 1))
	L["gw.leaf_solve_s"] = per(st.total["gw.leaf_solve"])
	L["gw.s_per_call"] = div(float64(st.total["gw.leaf_solve"])/1e9, float64(st.count["gw.leaf_solve"]))
	L["qaoa2.merge_solve_s"] = per(st.total["qaoa2.merge_solve"])
	L["qaoa2.self_s"] = per(st.self["qaoa2.solve"])
	L["qaoa2.self_share"] = div(L["qaoa2.self_s"], solve)
}

// minOf times f n times and returns the fastest, in seconds.
func minOf(n int, f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// measureKernels times the layers below the solver on fixed inputs: one
// mixer sweep over a 20-qubit Z2 statevector, and COBYLA alone on a
// free quadratic at the evaluation budget the p=3 leaves run with.
func measureKernels(L layerMetrics) {
	if st, err := qsim.NewZ2State(20); err == nil {
		sweep, _ := minOf(20, func() error { st.ApplyRXAll(0.37); return nil })
		// One read and one write of every stored amplitude: computed
		// from the array size, not counted by the hardware.
		bytes := float64(2 * 16 << 19)
		L["qsim.rx_sweep_s"] = sweep
		L["qsim.rx_gbps"] = bytes / sweep / 1e9
	}
	quadratic := func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - 0.1*float64(i+1)
			s += d * d
		}
		return s
	}
	L["opt.cobyla_self_s"], _ = minOf(20, func() error {
		opt.MinimizeCOBYLA(quadratic, make([]float64, 6), opt.COBYLAOptions{Rhobeg: 0.5, MaxEvals: qaoa.IterationsFor(3)})
		return nil
	})
}

// measureGraphLayers calls the graph and partition layers directly on
// the workload's first instance.
func measureGraphLayers(L layerMetrics, g *graph.Graph, maxQubits int) error {
	var parts [][]int
	var err error
	L["partition.size_capped_s"], err = minOf(2, func() error {
		parts, err = partition.SizeCapped(g, maxQubits)
		return err
	})
	if err != nil {
		return err
	}
	L["graph.induced_s"], err = minOf(3, func() error {
		for _, p := range parts {
			if _, _, err := g.InducedSubgraph(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	groupOf := make([]int, g.N())
	for i, p := range parts {
		for _, v := range p {
			groupOf[v] = i
		}
	}
	cross := 0.0
	for _, e := range g.Edges() {
		if groupOf[e.I] != groupOf[e.J] {
			cross += e.W
		}
	}
	L["partition.parts"] = float64(len(parts))
	L["partition.fill_ratio"] = float64(g.N()) / float64(len(parts)) / float64(maxQubits)
	L["partition.cross_weight_share"] = cross / g.TotalWeight()
	return nil
}

// measureRuntime prices the task-graph executor and its checkpoint
// store by difference, on the first instance with bare solvers: the
// synchronous recursion, the runtime without a checkpoint, the runtime
// with one, and a re-run against the finished checkpoint.
func measureRuntime(L layerMetrics, cfg phaseConfig) error {
	run, _, err := setup(cfg.w, cfg.seed, cfg.smoke, 1, nil)
	if err != nil {
		return err
	}
	defer run.close()
	r := run.(*libRunner)
	g, opts := r.solveOpts(0)
	solveWith := func(o func()) func() error {
		return func() error {
			o()
			if out := r.solve(g, opts); len(out.failures) > 0 {
				return fmt.Errorf("runtime layer: %s", out.failures[0])
			}
			return nil
		}
	}
	sync, err := minOf(3, solveWith(func() { opts.Runtime, opts.CheckpointPath = false, "" }))
	if err != nil {
		return err
	}
	var stats rt.Stats
	async, err := minOf(3, func() error {
		res, err := rt.Solve(g, rt.Options{
			MaxQubits: opts.MaxQubits, Solver: opts.Solver, MergeSolver: opts.MergeSolver,
			Parallelism: 1, Seed: opts.Seed,
		})
		if err == nil {
			stats = res.Stats
		}
		return err
	})
	if err != nil {
		return err
	}
	path := filepath.Join(r.tmpDir, "layer.ckpt")
	stored, err := minOf(2, solveWith(func() {
		os.Remove(path)
		opts.Runtime, opts.CheckpointPath = true, path
	}))
	if err != nil {
		return err
	}
	restored := 0
	opts.OnRuntimeEvent = func(ev rt.Event) {
		if ev.Restored {
			restored++
		}
	}
	resume, err := minOf(1, solveWith(func() {}))
	if err != nil {
		return err
	}
	L["runtime.tasks"] = float64(stats.Tasks)
	L["runtime.overhead_s"] = async - sync
	L["runtime.overhead_ratio"] = (async - sync) / sync
	L["runtime.checkpoint_s"] = stored - async
	L["runtime.resume_s"] = resume
	L["runtime.restored"] = float64(restored)
	return nil
}

// measureServePaths prices the wire and the queue by difference, on one
// fresh bare server: a closed-loop batch to warm it, then a batch
// through Server.Submit with no HTTP, then one through HTTP from a
// single client. Batches have their own solve seeds, so nothing is
// answered from the cache, and they replay the same slots, so the work
// compares slot by slot, also with the closed loop's latencies.
func measureServePaths(L layerMetrics, cfg phaseConfig, closedLoop []float64) error {
	run, _, err := setup(cfg.w, cfg.seed, cfg.smoke, 1, nil)
	if err != nil {
		return err
	}
	defer run.close()
	r := run.(*serveRunner)
	if out := r.batch(0, len(r.sched.slots), r.clients); len(out.failures) > 0 {
		return fmt.Errorf("serve layer: %s", out.failures[0])
	}
	inproc, err := r.inProcess(1)
	if err != nil {
		return err
	}
	if out := r.batch(2, len(r.sched.slots), 1); len(out.failures) > 0 {
		return fmt.Errorf("serve layer: %s", out.failures[0])
	}
	single := r.last.latency
	var solveS, wire, wait []float64
	for i, sl := range r.sched.slots {
		if sl.first != i {
			continue // repeats are cache hits: no solve to price
		}
		solveS = append(solveS, inproc[i])
		wire = append(wire, single[i]-inproc[i])
		wait = append(wait, closedLoop[i]-single[i])
	}
	L["serve.inproc_solve_s"] = mean(solveS)
	L["serve.wire_s"] = mean(wire)
	L["serve.queue_wait_s"] = mean(wait)
	return nil
}
