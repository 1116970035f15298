// HPC workflow: the paper's supercomputing side. First the Fig. 1
// scheduling comparison — monolithic vs heterogeneous SLURM jobs
// sharing one exclusive quantum device — then the Fig. 2 scheme: the
// task-graph executor's worker pool solves the sub-graphs, each routed
// at run time to QAOA or GW by a density policy, and finally the same
// executor with checkpoint/resume — the real execution engine behind
// the simulated schedules.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"qaoa2"
)

func main() {
	log.SetFlags(0)

	// ----- Fig. 1: heterogeneous jobs reduce QPU idle time -----
	cluster := qaoa2.Resources{Nodes: 8, QPUs: 1}
	mkJobs := func(het bool) []qaoa2.Job {
		var jobs []qaoa2.Job
		for i := 0; i < 3; i++ {
			jobs = append(jobs, qaoa2.Job{
				Name:          fmt.Sprintf("hybrid-%d", i),
				Heterogeneous: het,
				Steps: []qaoa2.Step{
					{Name: "classical-prep", Req: qaoa2.Resources{Nodes: 4}, Duration: 10},
					{Name: "qaoa-circuits", Req: qaoa2.Resources{QPUs: 1}, Duration: 2},
					{Name: "classical-post", Req: qaoa2.Resources{Nodes: 4}, Duration: 6},
				},
			})
		}
		return jobs
	}
	for _, het := range []bool{false, true} {
		m, err := qaoa2.SimulateCluster(cluster, mkJobs(het))
		if err != nil {
			log.Fatal(err)
		}
		mode := "monolithic   "
		if het {
			mode = "heterogeneous"
		}
		fmt.Printf("%s allocation: makespan %5.1f, QPU idle fraction %.3f\n",
			mode, m.Makespan, m.QPUIdleFrac)
	}

	// ----- Fig. 2: the executor's worker pool with a run-time density router -----
	g := qaoa2.ErdosRenyi(150, 0.1, qaoa2.Unweighted, qaoa2.NewRand(3))
	fmt.Printf("\ncoordinated QAOA² on %v\n", g)
	const workers = 4
	busy := make([]time.Duration, workers)
	start := time.Now()
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits: 12,
		Solver: qaoa2.DensityPolicy(0.55,
			qaoa2.QAOASolver{Opts: qaoa2.QAOAOptions{Layers: 2, MaxIters: 30}}, // sparse -> quantum
			qaoa2.GWSolver{}), // dense -> classical
		MergeSolver: qaoa2.GWSolver{},
		Parallelism: workers,
		Seed:        3,
		OnRuntimeEvent: func(ev qaoa2.RuntimeEvent) {
			busy[ev.Worker] += time.Duration(ev.Nanos)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	quantum, classical := 0, 0
	for _, r := range res.SubReports {
		if r.Solver == "qaoa" {
			quantum++
		} else {
			classical++
		}
	}
	fmt.Printf("  %d sub-graphs: %d routed to QAOA, %d to GW\n", res.SubGraphs, quantum, classical)
	fmt.Printf("  cut %.1f in %v (%d executor tasks)\n",
		res.Cut.Value, time.Since(start).Round(time.Millisecond), res.Stats.Tasks)
	for w, b := range busy {
		fmt.Printf("  worker %d busy %v\n", w+1, b.Round(time.Millisecond))
	}

	// ----- Task-graph runtime: async execution with checkpoint/resume -----
	// An in-process QAOA² solve: a DAG of partition / sub-solve / merge /
	// stitch tasks on a bounded worker pool. Every completed solve is
	// appended to the checkpoint, so killing the process and re-running
	// this program resumes instead of re-solving.
	// Per-user filename: the checkpoint must persist across runs (that
	// is the demo) without colliding with other users' files in /tmp.
	ckpt := filepath.Join(os.TempDir(), fmt.Sprintf("qaoa2_hpc_workflow_%d.ckpt", os.Getuid()))
	fmt.Printf("\ntask-graph runtime solve (checkpoint %s)\n", ckpt)
	big := qaoa2.ErdosRenyi(240, 0.05, qaoa2.Unweighted, qaoa2.NewRand(9))
	solved, restored := 0, 0
	start = time.Now()
	rres, err := qaoa2.Solve(big, qaoa2.Options{
		MaxQubits:      12,
		Parallelism:    4,
		Solver:         qaoa2.AnnealSolver{},
		MergeSolver:    qaoa2.AnnealSolver{},
		Seed:           9,
		CheckpointPath: ckpt,
		OnRuntimeEvent: func(ev qaoa2.RuntimeEvent) {
			switch {
			case ev.Restored:
				restored++
			case ev.Kind == "sub-solve" || ev.Kind == "merge-solve":
				solved++
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  cut %.1f over %d levels in %v — %d tasks solved, %d restored\n",
		rres.Cut.Value, rres.Levels, time.Since(start).Round(time.Millisecond), solved, restored)
	if restored > 0 {
		fmt.Println("  (resumed from a previous run's checkpoint; delete it for a cold start)")
	} else {
		fmt.Println("  (run again — or kill a run halfway — and it resumes from the checkpoint)")
	}
}
