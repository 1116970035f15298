package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// workload is one set of inputs the benchmark runs. Sizes are fixed;
// only the number of repetitions follows -seconds (see plan).
type workload struct {
	name, why string
	// instances is how many seeded graphs a run solves, and timed how
	// many of them it times. Timing wants many repetitions of few
	// instances (the host is noisy; the fastest repetitions are the
	// program). Counts want many instances (they repeat exactly for an
	// instance but differ between instances). So a run goes round the
	// first timed instances over and over, and solves each other
	// instance once at the end, for the counts and the cut ratio only.
	// merge-heavy times all three: the time of a GW solve moves 20%
	// from one ER(1400) graph to the next, that of the others 1-6%.
	instances, timed int
	// reps is the number of steady repetitions of a 24 s run: one solve
	// each (one batch of jobs on serve-mix).
	reps int
	// gen makes instance i from the run seed.
	gen func(seed uint64, i int, smoke bool) *graph.Graph
	// maxQubits, leaf and merge configure the solve (full, smoke).
	maxQubits   [2]int
	leaf, merge solver.Spec
	runtime     bool // task-graph executor with a checkpoint per solve
	serve       bool // jobs through the loopback solve service
}

var workloads = []workload{
	{
		name:      "leaf-heavy",
		why:       "two 20-qubit QAOA leaves per solve: 8 MiB statevectors, time in backend.Evaluate and Prepare; kernel, engine and optimizer-loop work shows here",
		instances: 2, timed: 1, reps: 11,
		gen: func(seed uint64, i int, smoke bool) *graph.Graph {
			size := 20
			if smoke {
				size = 8
			}
			g, _ := graph.PlantedCommunities(2, size, 0.5, 0.02, graph.Unweighted, instanceRand(seed, i))
			return g
		},
		maxQubits: [2]int{20, 8},
		leaf:      solver.Spec{Name: "qaoa", Layers: 3},
		merge:     solver.Spec{Name: "qaoa", Layers: 3},
	},
	{
		name:      "merge-heavy",
		why:       "1400-node ER graphs, gw leaves and merge, no statevector: partition, GW/SDP, merge, stitch and allocation work shows; a kernel change must show nothing",
		instances: 3, timed: 3, reps: 15,
		gen: func(seed uint64, i int, smoke bool) *graph.Graph {
			n := 1400
			if smoke {
				n = 120
			}
			return graph.ErdosRenyi(n, 10/float64(n), graph.Unweighted, instanceRand(seed, i))
		},
		maxQubits: [2]int{16, 8},
		leaf:      solver.Spec{Name: "gw"},
		merge:     solver.Spec{Name: "gw"},
	},
	{
		name:      "dag-checkpoint",
		why:       "1200-node ER graphs through the task-graph runtime with best(qaoa p=2, gw) leaves and a JSONL checkpoint fsynced per task: the same qaoa2 layer used differently",
		instances: 3, timed: 1, reps: 20,
		gen: func(seed uint64, i int, smoke bool) *graph.Graph {
			n := 1200
			if smoke {
				n = 100
			}
			return graph.ErdosRenyi(n, 8/float64(n), graph.Unweighted, instanceRand(seed, i))
		},
		maxQubits: [2]int{12, 6},
		leaf:      solver.Spec{Name: "best", Layers: 2},
		merge:     solver.Spec{Name: "gw"},
		runtime:   true,
	},
	{
		name:      "serve-mix",
		why:       "batches of 64 small jobs through the loopback solve service, 30% repeats, 10% high priority: queue, admission, cache, JSON wire and NDJSON streaming do the work",
		instances: 1, timed: 1, reps: 9,
		maxQubits: [2]int{10, 6},
		leaf:      solver.Spec{Name: "best", Layers: 2},
		merge:     solver.Spec{Name: "gw"},
		serve:     true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instanceRand derives the generator stream of instance i.
func instanceRand(seed uint64, i int) *rng.Rand {
	return rng.New(seed).Split(uint64(i) + 0x1a57)
}

// baseSeconds is the run length the reps fields are sized for.
const baseSeconds = 24

// plan is how much one run measures. Counts are fixed by -seconds and
// -trace, never by a clock, so the counts the program reports repeat.
type plan struct {
	reps int // steady repetitions
	cold int // cold child processes (setup_s samples)
}

// planFor scales the repetitions with the run length. Floors: 3 timed
// repetitions besides one visit to each untimed instance, and one to
// each timed one; 3 cold starts (1 when the run only feeds the traced
// pass).
func planFor(w workload, seconds int, traceOnly, smoke bool) plan {
	p := plan{reps: w.reps * seconds / baseSeconds, cold: 3}
	if traceOnly || smoke {
		p = plan{reps: 0, cold: 1}
	}
	p.reps = max(p.reps, max(3, w.timed)+w.instances-w.timed)
	return p
}

// instanceOf says which instance repetition i of n solves: round the
// timed instances, except that the last repetitions visit the others.
func (w workload) instanceOf(i, n int) int {
	if visits := w.instances - w.timed; i >= n-visits {
		return w.timed + i - (n - visits)
	}
	return i % w.timed
}

// outcome is what one repetition produced, after verification.
type outcome struct {
	solves   int // attempted solves (1, or the jobs of a batch)
	failures []string
	cutRatio float64 // mean cut value / total edge weight over the solves
	digest   string  // fingerprint of every returned assignment
	// head fingerprints what a cold start of the same workload also
	// produces: the whole solve, or the first jobs of a batch.
	head   string
	result *qaoa2.Result
}

// runner is a set-up workload: instances generated, solvers built.
type runner interface {
	// rep runs repetition i on the given instance and verifies it.
	rep(i, instance int) outcome
	// close releases servers, listeners and temp files.
	close()
}

// setupTimes is where set-up went, for the per-layer table.
type setupTimes struct{ gen, build time.Duration }

// libRunner drives qaoa2.Solve directly (the three library workloads).
type libRunner struct {
	w      workload
	seed   uint64
	graphs []*graph.Graph
	opts   qaoa2.Options
	tmpDir string // checkpoint files (runtime workloads)
	tr     *tracer
	events int             // runtime events of the last rep
	ckpt   checkpointStats // checkpoint of the last rep
	// parts, when set, is handed to Solve as the explicit partition
	// (traced pass: the dividing step runs under the harness's span).
	parts [][]int
}

type checkpointStats struct{ records, bytes int64 }

// setup generates the instances and builds the solvers. parallelism 0
// leaves the library default (GOMAXPROCS). A tracer wraps the solvers
// in timing decorators; nil runs them bare.
func setup(w workload, seed uint64, smoke bool, parallelism int, tr *tracer) (runner, setupTimes, error) {
	if w.serve {
		return setupServe(w, seed, smoke, tr)
	}
	var st setupTimes
	t := time.Now()
	r := &libRunner{w: w, seed: seed, tr: tr}
	for i := 0; i < w.instances; i++ {
		r.graphs = append(r.graphs, w.gen(seed, i, smoke))
	}
	st.gen = time.Since(t)

	t = time.Now()
	leaf, err := solver.Build(w.leaf)
	if err != nil {
		return nil, st, err
	}
	merge, err := solver.Build(w.merge)
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t)
	if tr != nil {
		leaf, merge = instrument(leaf, tr, "leaf", 0), instrument(merge, tr, "merge", 0)
	}
	r.opts = qaoa2.Options{
		MaxQubits:   w.maxQubits[smokeIndex(smoke)],
		Solver:      leaf,
		MergeSolver: merge,
		Parallelism: parallelism,
		Runtime:     w.runtime,
	}
	if w.runtime {
		dir, err := makeTempDir()
		if err != nil {
			return nil, st, err
		}
		r.tmpDir = dir
	}
	return r, st, nil
}

func smokeIndex(smoke bool) int {
	if smoke {
		return 1
	}
	return 0
}

// tempRoot holds every file the harness writes besides the span files.
// It lives in the working directory so a run writes inside its checkout
// only, which also means dag-checkpoint's fsyncs hit the checkout's
// file system.
const tempRoot = ".bench_tmp"

func makeTempDir() (string, error) {
	if err := os.MkdirAll(tempRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tempRoot, fmt.Sprintf("p%d-", os.Getpid()))
}

func (r *libRunner) close() {
	if r.tmpDir != "" {
		os.RemoveAll(r.tmpDir)
	}
}

// solveOpts returns an instance and its options: the solve seed is
// fixed per instance, so every repetition of an instance must return
// the same assignment.
func (r *libRunner) solveOpts(inst int) (*graph.Graph, qaoa2.Options) {
	opts := r.opts
	opts.Seed = r.seed + uint64(inst)
	return r.graphs[inst], opts
}

func (r *libRunner) rep(i, instance int) outcome {
	g, opts := r.solveOpts(instance)
	if r.w.runtime {
		opts.CheckpointPath = filepath.Join(r.tmpDir, fmt.Sprintf("rep%d.ckpt", i))
		defer os.Remove(opts.CheckpointPath)
		r.events = 0
		opts.OnRuntimeEvent = func(rt.Event) { r.events++ }
	}
	opts.Partition = r.parts
	return r.solve(g, opts)
}

// solve runs one qaoa2.Solve and verifies what it returned.
func (r *libRunner) solve(g *graph.Graph, opts qaoa2.Options) outcome {
	out := outcome{solves: 1}
	res, err := qaoa2.Solve(g, opts)
	if err != nil {
		out.failures = append(out.failures, err.Error())
		return out
	}
	if opts.CheckpointPath != "" && r.tr != nil {
		r.ckpt = statCheckpoint(opts.CheckpointPath) // traced pass only: not inside a timed repetition
	}
	if err := verifyCut(g, res.Cut.Spins, res.Cut.Value); err != nil {
		out.failures = append(out.failures, err.Error())
		return out
	}
	out.result = res
	out.cutRatio = res.Cut.Value / g.TotalWeight()
	out.digest = digestSpins(res.Cut.Spins)
	out.head = out.digest
	return out
}

// statCheckpoint counts the task records (lines after the header) and
// bytes of a finished checkpoint file.
func statCheckpoint(path string) checkpointStats {
	data, err := os.ReadFile(path)
	if err != nil {
		return checkpointStats{}
	}
	lines := int64(bytes.Count(data, []byte("\n")))
	return checkpointStats{records: max(lines-1, 0), bytes: int64(len(data))}
}

// verifyCut checks an assignment against its instance: one ±1 spin per
// node and a reported value equal to the cut the spins really make.
func verifyCut(g *graph.Graph, spins []int8, value float64) error {
	if len(spins) != g.N() {
		return fmt.Errorf("%d spins for %d nodes", len(spins), g.N())
	}
	for v, s := range spins {
		if s != 1 && s != -1 {
			return fmt.Errorf("spin %d of node %d is not ±1", s, v)
		}
	}
	if got := g.CutValue(spins); got != value {
		return fmt.Errorf("reported cut %v but spins cut %v", value, got)
	}
	return nil
}

// digestSpins fingerprints an assignment for the determinism check.
func digestSpins(spins []int8) string {
	b := make([]byte, len(spins))
	for i, s := range spins {
		b[i] = byte(s)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
