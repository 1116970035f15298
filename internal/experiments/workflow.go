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
			MergeSolver:    solver.GWSolver{},
			Parallelism:    w,
			Seed:           cfg.Seed,
			OnRuntimeEvent: func(ev runtime.Event) { busy += time.Duration(ev.Nanos) },
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
// evaluation. The one-core row is the serial worker engine that
// EvaluateBatch of a single vector runs; the other row is Evaluate,
// whose sweeps split over the shared kernel pool. The rows' energies
// agree bit for bit: the engine sums one partial per sweep batch, in
// batch order, on any worker count.
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
	energy := make([]float64, 1)
	serial := func() error {
		return backend.EvaluateBatch(ans, [][]float64{gammas}, [][]float64{betas}, energy)
	}
	pooled := func() error {
		_, _, err := ans.Evaluate(gammas, betas)
		return err
	}
	var out []ScalingPoint
	for _, row := range []struct {
		cores int
		eval  func() error
	}{{1, serial}, {goruntime.GOMAXPROCS(0), pooled}} {
		// Warm-up evaluation: engines build, pool workers start.
		if err := row.eval(); err != nil {
			return nil, err
		}
		const reps = 10
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			if err := row.eval(); err != nil {
				return nil, err
			}
		}
		out = append(out, ScalingPoint{
			Cores:   row.cores,
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
	Method   sdp.Method
	Seconds  float64
	SDPValue float64
	AvgCut   float64
	// Converged is false when the relaxation used its whole iteration
	// budget — ADMM's usual state here from about 16 nodes up, the form
	// the paper's "SCS aborted beyond 2000 nodes" takes in this study.
	Converged bool
}

// gwScalingADMMLimit is the largest order at which the scaling study
// still runs the ADMM reference: a 250-iteration run costs seconds at
// 120 nodes and grows as n³ per iteration beyond.
const gwScalingADMMLimit = 120

// RunGWScaling times GW at increasing sizes with both SDP back ends
// (the mixing method throughout, the ADMM reference — the stand-in for
// the paper's SCS — while it is affordable).
func RunGWScaling(sizes []int, seed uint64) ([]GWScalePoint, error) {
	var out []GWScalePoint
	for _, n := range sizes {
		r := rng.New(seed ^ uint64(n))
		g := graph.ErdosRenyi(n, 0.1, graph.Unweighted, r)
		methods := []sdp.Method{sdp.Mixing}
		if n <= gwScalingADMMLimit {
			methods = append(methods, sdp.ADMM)
		}
		for _, m := range methods {
			start := time.Now()
			// A bounded iteration budget keeps the timing comparison
			// about per-iteration cost growth, the paper's complexity
			// observation, rather than convergence-path noise.
			res, err := gw.Solve(g, gw.Options{SDP: sdp.Options{Method: m, Seed: seed, MaxIters: 250}}, rng.New(seed))
			if err != nil {
				return nil, err
			}
			out = append(out, GWScalePoint{
				Nodes:     n,
				Method:    m,
				Seconds:   time.Since(start).Seconds(),
				SDPValue:  res.SDPValue,
				AvgCut:    res.Average,
				Converged: res.Converged,
			})
		}
	}
	return out, nil
}

// RenderGWScaling tabulates the measurement.
func RenderGWScaling(points []GWScalePoint) string {
	header := []string{"nodes", "method", "seconds", "converged", "sdp value", "avg cut"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			p.Method.String(),
			fmt.Sprintf("%.4f", p.Seconds),
			fmt.Sprintf("%t", p.Converged),
			fmtF(p.SDPValue),
			fmtF(p.AvgCut),
		})
	}
	return RenderTable("GW scaling: time vs graph size per SDP method", header, rows)
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
