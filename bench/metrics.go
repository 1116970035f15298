package main

// metric names one number the benchmark prints. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two equal.
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is what a user of the system sees, the same set on every
// workload. Failures are not a metric here (a metric may never read 0):
// they are the "failed" count of the result line, and any failure makes
// the run incorrect.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"cut_ratio", "ratio", "higher", 0.05},
	{"allocs_per_solve", "count", "lower", 0.15},
	{"alloc_kb_per_solve", "KB", "lower", 0.15},
	{"retained_heap_mb", "MB", "lower", 0.15},
}

// perLayer is the traced pass's table. A row that does not apply to a
// workload (serve.* on a library workload) reads 0 there.
var perLayer = []metric{
	{name: "graph.gen_s", unit: "s", better: "lower"},
	{name: "graph.induced_s", unit: "s", better: "lower"},
	{name: "partition.size_capped_s", unit: "s", better: "lower"},
	{name: "partition.parts", unit: "count", better: "lower"},
	{name: "partition.fill_ratio", unit: "ratio", better: "higher"},
	{name: "partition.cross_weight_share", unit: "ratio", better: "lower"},
	{name: "qsim.rx_sweep_s", unit: "s", better: "lower"},
	{name: "qsim.rx_gbps", unit: "GB/s", better: "higher"},
	{name: "backend.evaluate_calls", unit: "count", better: "lower"},
	{name: "backend.evaluate_s", unit: "s", better: "lower"},
	{name: "backend.evaluate_s_per_call", unit: "s", better: "lower"},
	{name: "backend.bytes_per_eval_computed", unit: "B", better: "lower"},
	{name: "backend.batch_calls", unit: "count", better: "higher"},
	{name: "backend.prepare_s", unit: "s", better: "lower"},
	{name: "opt.cobyla_self_s", unit: "s", better: "lower"},
	{name: "qaoa.leaf_solve_s", unit: "s", better: "lower"},
	{name: "qaoa.evals_per_leaf", unit: "count", better: "lower"},
	{name: "qaoa.self_s", unit: "s", better: "lower"},
	{name: "qaoa.self_share", unit: "ratio", better: "lower"},
	{name: "gw.calls", unit: "count", better: "lower"},
	{name: "gw.leaf_solve_s", unit: "s", better: "lower"},
	{name: "gw.s_per_call", unit: "s", better: "lower"},
	{name: "solver.build_s", unit: "s", better: "lower"},
	{name: "solver.attempts", unit: "count", better: "lower"},
	{name: "solver.qaoa_win_share", unit: "ratio", better: "higher"},
	{name: "solver.wasted_attempt_s", unit: "s", better: "lower"},
	{name: "qaoa2.subgraphs", unit: "count", better: "lower"},
	{name: "qaoa2.levels", unit: "count", better: "lower"},
	{name: "qaoa2.merge_solve_s", unit: "s", better: "lower"},
	{name: "qaoa2.self_s", unit: "s", better: "lower"},
	{name: "qaoa2.self_share", unit: "ratio", better: "lower"},
	{name: "runtime.tasks", unit: "count", better: "lower"},
	{name: "runtime.events", unit: "count", better: "lower"},
	{name: "runtime.overhead_s", unit: "s", better: "lower"},
	{name: "runtime.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "runtime.checkpoint_s", unit: "s", better: "lower"},
	{name: "runtime.checkpoint_records", unit: "count", better: "lower"},
	{name: "runtime.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "runtime.resume_s", unit: "s", better: "lower"},
	{name: "runtime.restored", unit: "count", better: "higher"},
	{name: "serve.jobs", unit: "count", better: "higher"},
	{name: "serve.latency_p50_s", unit: "s", better: "lower"},
	{name: "serve.latency_p90_s", unit: "s", better: "lower"},
	{name: "serve.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "serve.coalesced", unit: "count", better: "higher"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.hit_latency_p50_s", unit: "s", better: "lower"},
	{name: "serve.inproc_solve_s", unit: "s", better: "lower"},
	{name: "serve.wire_s", unit: "s", better: "lower"},
	{name: "serve.queue_wait_s", unit: "s", better: "lower"},
	{name: "serve.events_per_job", unit: "count", better: "lower"},
	{name: "serve.submit_body_kb", unit: "KB", better: "lower"},
	{name: "par.solve_s", unit: "s", better: "lower"},
	{name: "par.speedup", unit: "ratio", better: "higher"},
	{name: "host.ref_s_min", unit: "s", better: "lower"},
	{name: "host.ref_noise", unit: "ratio", better: "lower"},
	{name: "host.scale", unit: "ratio", better: "higher"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "trace.solve_s", unit: "s", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.accounted_ratio", unit: "ratio", better: "higher"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "e2e.solve_s_p50", unit: "s", better: "lower"},
	{name: "e2e.solve_s_p90", unit: "s", better: "lower"},
	{name: "e2e.solve_s_min", unit: "s", better: "lower"},
	{name: "e2e.setup_s_p50", unit: "s", better: "lower"},
	{name: "e2e.reps", unit: "count", better: "higher"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
