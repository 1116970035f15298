package experiments

import (
	"fmt"
	goruntime "runtime"
	"time"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/hpc"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	"qaoa2/internal/runtime"
	"qaoa2/internal/sdp"
	"qaoa2/internal/solver"
	"qaoa2/internal/synth"
)

// Fig1Result compares the monolithic and heterogeneous SLURM allocation
// of the same hybrid job stream (Fig. 1: "Heterogeneous jobs for the
// reduction of idle time of a quantum device").
type Fig1Result struct {
	Mono *hpc.Metrics
	Het  *hpc.Metrics
}

// RunFig1 simulates `jobs` hybrid jobs (classical prep → QAOA on the
// QPU → classical post) on a cluster with one exclusive quantum device,
// once with monolithic allocations and once as heterogeneous jobs.
func RunFig1(jobs int) (*Fig1Result, error) {
	if jobs < 1 {
		jobs = 2
	}
	cluster := hpc.Resources{Nodes: 4 * jobs, QPUs: 1}
	build := func(het bool) []hpc.Job {
		var out []hpc.Job
		for i := 0; i < jobs; i++ {
			out = append(out, hpc.Job{
				Name:          fmt.Sprintf("hybrid-%d", i),
				Submit:        0,
				Heterogeneous: het,
				Steps: []hpc.Step{
					{Name: "prep", Req: hpc.Resources{Nodes: 4}, Duration: 10},
					{Name: "qaoa", Req: hpc.Resources{QPUs: 1}, Duration: 2},
					{Name: "post", Req: hpc.Resources{Nodes: 4}, Duration: 6},
				},
			})
		}
		return out
	}
	mono, err := hpc.Simulate(cluster, build(false))
	if err != nil {
		return nil, err
	}
	het, err := hpc.Simulate(cluster, build(true))
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Mono: mono, Het: het}, nil
}

// RenderFig1 reports the idle-time reduction.
func RenderFig1(r *Fig1Result) string {
	header := []string{"allocation", "makespan", "QPU busy", "QPU held", "QPU idle frac"}
	rows := [][]string{
		{"monolithic", fmtF(r.Mono.Makespan), fmtF(r.Mono.QPUBusyTime), fmtF(r.Mono.QPUHeldTime), fmtF(r.Mono.QPUIdleFrac)},
		{"heterogeneous", fmtF(r.Het.Makespan), fmtF(r.Het.QPUBusyTime), fmtF(r.Het.QPUHeldTime), fmtF(r.Het.QPUIdleFrac)},
	}
	return RenderTable("Fig1: heterogeneous jobs vs monolithic allocation", header, rows)
}

// Fig2Config parameterizes the coordinator-workflow measurement.
type Fig2Config struct {
	Nodes     int     // graph size
	EdgeProb  float64 // instance density
	Workers   []int   // worker counts (executor Parallelism) to sweep
	MaxQubits int
	Seed      uint64
}

// DefaultFig2Config is a laptop-scale instance whose sub-graphs
// straddle the router's density threshold.
func DefaultFig2Config() Fig2Config {
	return Fig2Config{Nodes: 120, EdgeProb: 0.1, Workers: []int{1, 2, 4}, MaxQubits: 12, Seed: 4}
}

// Fig2Point is one worker-count measurement.
type Fig2Point struct {
	Workers      int
	Cut          float64
	Elapsed      time.Duration
	SumBusy      time.Duration // total solve time over all workers
	OverheadFrac float64       // 1 − busy/(workers·elapsed): idle + coordination
	Tasks        int           // executor tasks run
}

// fig2Threshold is the router's density threshold: sparser sub-graphs
// go to QAOA, denser ones to GW.
const fig2Threshold = 0.55

// RunFig2 sweeps worker counts over the same instance, demonstrating
// the Fig. 2 distribution scheme and measuring the coordination
// overhead the paper calls "minimal". The scheme is qaoa2.Solve with a
// density router: the executor's pool is the worker set, and busy time
// is the sum of its solve tasks' wall times (runtime.Event.Nanos).
func RunFig2(cfg Fig2Config) ([]Fig2Point, error) {
	r := rng.New(cfg.Seed)
	g := graph.ErdosRenyi(cfg.Nodes, cfg.EdgeProb, graph.Unweighted, r)
	var out []Fig2Point
	for _, w := range cfg.Workers {
		var busy time.Duration
		start := time.Now()
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits: cfg.MaxQubits,
			Solver: hpc.DensityPolicy(fig2Threshold,
				solver.QAOASolver{Opts: qaoa.Options{Layers: 2, MaxIters: 30}}, solver.GWSolver{}),
			MergeSolver: solver.GWSolver{},
			Parallelism: w,
			Seed:        cfg.Seed,
			OnRuntimeEvent: func(ev runtime.Event) {
				// Partition, merge-build and stitch are timed too;
				// the overhead fraction counts them as coordination.
				if ev.Kind == "sub-solve" || ev.Kind == "merge-solve" {
					busy += time.Duration(ev.Nanos)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		point := Fig2Point{
			Workers: w,
			Cut:     res.Cut.Value,
			Elapsed: time.Since(start),
			SumBusy: busy,
			Tasks:   res.Stats.Tasks,
		}
		if point.Elapsed > 0 && w > 0 {
			point.OverheadFrac = 1 - float64(busy)/(float64(w)*float64(point.Elapsed))
		}
		out = append(out, point)
	}
	return out, nil
}

// RenderFig2 tabulates the sweep.
func RenderFig2(points []Fig2Point) string {
	header := []string{"workers", "cut", "elapsed", "sum busy", "overhead frac", "tasks"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Workers),
			fmtF(p.Cut),
			p.Elapsed.Round(time.Microsecond).String(),
			p.SumBusy.Round(time.Microsecond).String(),
			fmtF(p.OverheadFrac),
			fmt.Sprintf("%d", p.Tasks),
		})
	}
	return RenderTable("Fig2: coordinator workflow sweep", header, rows)
}

// ScalingPoint is one core count of the statevector strong-scaling
// experiment (§4's "simulation of QAOA for 33 qubits takes ~10 minutes
// on 512 compute nodes" and the "almost ideal scaling" remark, measured
// here inside one node).
type ScalingPoint struct {
	Cores   int
	Qubits  int
	Seconds float64
}

// RunEngineScaling evaluates one fixed-size graph through the fused
// backend on one core and on GOMAXPROCS cores, measuring wall time per
// evaluation. Both rows time the same Evaluate, whose sweeps split over
// the shared kernel pool: the one-core row runs it under
// runtime.GOMAXPROCS(1), and the caller's setting is restored before
// RunEngineScaling returns. The rows' energies agree bit for bit: the
// engine sums one partial per sweep batch, in batch order, on any
// worker count.
func RunEngineScaling(qubits, layers int, seed uint64) ([]ScalingPoint, error) {
	r := rng.New(seed)
	g := graph.ErdosRenyi(qubits, 0.3, graph.Unweighted, r)
	gammas, betas := make([]float64, layers), make([]float64, layers)
	for i := range gammas {
		gammas[i] = 0.4
		betas[i] = 0.3
	}
	ans, err := backend.Fused{}.Prepare(g, backend.Config{Layers: layers})
	if err != nil {
		return nil, err
	}
	defer backend.Release(ans)
	// The kernel pool sizes itself on first use: start it at the
	// caller's setting before the one-core row narrows GOMAXPROCS.
	if _, _, err := ans.Evaluate(gammas, betas); err != nil {
		return nil, err
	}
	procs := goruntime.GOMAXPROCS(0)
	defer goruntime.GOMAXPROCS(procs)
	var out []ScalingPoint
	for _, cores := range []int{1, procs} {
		goruntime.GOMAXPROCS(cores)
		// Warm-up evaluation: the caches fill at this core count.
		if _, _, err := ans.Evaluate(gammas, betas); err != nil {
			return nil, err
		}
		const reps = 10
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			if _, _, err := ans.Evaluate(gammas, betas); err != nil {
				return nil, err
			}
		}
		out = append(out, ScalingPoint{
			Cores:   cores,
			Qubits:  qubits,
			Seconds: time.Since(start).Seconds() / reps,
		})
	}
	return out, nil
}

// RenderEngineScaling tabulates the fused-engine scaling run.
func RenderEngineScaling(points []ScalingPoint) string {
	header := []string{"cores", "qubits", "sec/eval"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%d", p.Qubits),
			fmt.Sprintf("%.4f", p.Seconds),
		})
	}
	return RenderTable("Fused engine strong scaling (kernel pool cores)", header, rows)
}

// GWScalePoint is one size of the GW complexity measurement (§3.4's
// O(N^6.5)/O(N^4) remark and the >2000-node failure note).
type GWScalePoint struct {
	Nodes    int
	Seconds  float64 // the GW solve: relaxation and 30 roundings
	SDPValue float64 // relaxation value at the rounded embedding
	// Bound is sdp.DualBound of that embedding; BoundSeconds times the
	// bound alone.
	// (Bound − SDPValue)/SDPValue is how far the relaxation provably
	// is from the SDP optimum.
	Bound        float64
	BoundSeconds float64
	AvgCut       float64
	// Converged is false when the relaxation used its whole sweep
	// budget.
	Converged bool
}

// RunGWScaling times GW at increasing sizes and certifies each
// relaxation with its dual bound. The paper's SCS aborted beyond 2000
// nodes; there is no SCS here, so that failure is not reproduced.
func RunGWScaling(sizes []int, seed uint64) ([]GWScalePoint, error) {
	var out []GWScalePoint
	for _, n := range sizes {
		r := rng.New(seed ^ uint64(n))
		g := graph.ErdosRenyi(n, 0.1, graph.Unweighted, r)
		// A bounded sweep budget keeps the timing about per-sweep cost
		// growth, the paper's complexity observation, rather than
		// convergence-path noise.
		start := time.Now()
		res, err := gw.Solve(g, sdp.Options{Seed: seed, MaxIters: 250}, rng.New(seed))
		if err != nil {
			return nil, err
		}
		p := GWScalePoint{
			Nodes:     n,
			Seconds:   time.Since(start).Seconds(),
			SDPValue:  res.Relaxation.Value,
			AvgCut:    res.Average,
			Converged: res.Relaxation.Converged,
		}
		start = time.Now()
		if p.Bound, err = sdp.DualBound(g, res.Relaxation); err != nil {
			return nil, err
		}
		p.BoundSeconds = time.Since(start).Seconds()
		out = append(out, p)
	}
	return out, nil
}

// RenderGWScaling tabulates the measurement; gap is
// (bound − sdp value)/sdp value.
func RenderGWScaling(points []GWScalePoint) string {
	header := []string{"nodes", "seconds", "converged", "sdp value", "bound", "gap", "bound s", "avg cut"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.4f", p.Seconds),
			fmt.Sprintf("%t", p.Converged),
			fmtF(p.SDPValue),
			fmtF(p.Bound),
			fmt.Sprintf("%.1e", (p.Bound-p.SDPValue)/p.SDPValue),
			fmt.Sprintf("%.4f", p.BoundSeconds),
			fmtF(p.AvgCut),
		})
	}
	return RenderTable("GW scaling: time vs graph size, relaxation certified by its dual bound", header, rows)
}

// SynthesisAblation compares naive and depth-optimized synthesis on one
// graph family (ablation A1 in DESIGN.md): the returned pairs are
// (naive depth, optimized depth) per instance.
func SynthesisAblation(nodes int, prob float64, layers, instances int, seed uint64) ([][2]int, error) {
	var out [][2]int
	for i := 0; i < instances; i++ {
		r := rng.New(seed ^ uint64(i)<<8)
		g := graph.ErdosRenyi(nodes, prob, graph.Unweighted, r)
		naive, err := synth.BuildTemplate(synth.Model{Graph: g, Layers: layers},
			synth.Preferences{Objective: synth.ObjectiveNone})
		if err != nil {
			return nil, err
		}
		opt, err := synth.BuildTemplate(synth.Model{Graph: g, Layers: layers},
			synth.Preferences{Objective: synth.MinimizeDepth})
		if err != nil {
			return nil, err
		}
		out = append(out, [2]int{naive.Report.Depth, opt.Report.Depth})
	}
	return out, nil
}
