package hpc

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// The paper's Fig. 2 scheme is qaoa2.Solve with a routed solver: the
// executor's pool is the worker set, Parallelism the worker count.

func TestCoordinatedExactLeaves(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.15, graph.Unweighted, rng.New(1))
	var busy int64
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:      8,
		Solver:         solver.ExactSolver{},
		MergeSolver:    solver.ExactSolver{},
		Parallelism:    3,
		Seed:           1,
		OnRuntimeEvent: func(ev rt.Event) { busy += ev.Nanos },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs < 2 || len(res.SubReports) != res.SubGraphs {
		t.Fatalf("%d sub-reports for %d sub-graphs", len(res.SubReports), res.SubGraphs)
	}
	if res.Stats.Tasks <= res.SubGraphs || busy <= 0 {
		t.Fatalf("%d tasks, %dns busy", res.Stats.Tasks, busy)
	}
}

// TestCoordinatedMatchesInProcessQAOA2: a router that sends every
// sub-graph to one member yields that member's solve bit for bit — the
// member gets the sub-graph's stream unsplit.
func TestCoordinatedMatchesInProcessQAOA2(t *testing.T) {
	g := graph.ErdosRenyi(36, 0.2, graph.Unweighted, rng.New(2))
	gw, anneal := solver.GWSolver{}, solver.AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 30}}
	for _, tc := range []struct {
		threshold float64
		member    solver.Solver
	}{{2, gw}, {-1, anneal}} {
		opts := qaoa2.Options{MaxQubits: 7, MergeSolver: solver.ExactSolver{}, Seed: 9}
		opts.Solver = tc.member
		want, err := qaoa2.Solve(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Solver = DensityPolicy(tc.threshold, gw, anneal)
		got, err := qaoa2.Solve(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cut, want.Cut) {
			t.Fatalf("routed to %s: cut %v, member alone %v", tc.member.Name(), got.Cut.Value, want.Cut.Value)
		}
		for i, r := range got.SubReports {
			if r.Solver != tc.member.Name() || r.Value != want.SubReports[i].Value {
				t.Fatalf("sub-graph %d: %+v, member alone %+v", i, r, want.SubReports[i])
			}
		}
	}
}

func TestCoordinatedSingleWorker(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.2, graph.Unweighted, rng.New(3))
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:   8,
		Solver:      solver.GWSolver{},
		MergeSolver: solver.ExactSolver{},
		Parallelism: 1,
		Seed:        3,
		OnRuntimeEvent: func(ev rt.Event) {
			if ev.Worker != 0 {
				t.Errorf("%s ran on worker %d of 1", ev.Task, ev.Worker)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatedDeterministicAcrossWorkerCounts: a routed run's cut
// and routing (sub-graph densities 0.5 to 1 around a 0.7 threshold) do
// not depend on how many workers ran it.
func TestCoordinatedDeterministicAcrossWorkerCounts(t *testing.T) {
	g := graph.ErdosRenyi(32, 0.2, graph.Unweighted, rng.New(4))
	var base *qaoa2.Result
	for _, workers := range []int{1, 5} {
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits:   6,
			Solver:      DensityPolicy(0.7, solver.AnnealSolver{}, solver.GWSolver{}),
			MergeSolver: solver.GWSolver{},
			Parallelism: workers,
			Seed:        11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			checkMixed(t, res, "anneal", "gw")
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Cut, base.Cut) {
			t.Fatalf("placement-dependent cut: %v vs %v", res.Cut.Value, base.Cut.Value)
		}
		for i, r := range res.SubReports {
			if r.Solver != base.SubReports[i].Solver || r.Value != base.SubReports[i].Value {
				t.Fatalf("sub-graph %d: %+v vs %+v", i, r, base.SubReports[i])
			}
		}
	}
}

// TestDensityPolicyRoutes: the router picks the quantum member exactly
// when density ≤ threshold, attributes the solve to that member with
// its certificate (exact issues one, anneal none), and returns the
// member's own cut on the same stream.
func TestDensityPolicyRoutes(t *testing.T) {
	quantum, classical := solver.ExactSolver{}, solver.AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 30}}
	sparse := graph.Path(10) // density 9/45 = 0.2
	d := sparse.Density()
	for _, tc := range []struct {
		g         *graph.Graph
		threshold float64
		want      solver.Solver
	}{
		{sparse, 0.5, quantum},
		{graph.Complete(6), 0.5, classical},
		{sparse, d, quantum},
		{sparse, math.Nextafter(d, -1), classical},
		{graph.Complete(6), 1, quantum}, // density exactly 1
	} {
		cut, rep, err := solver.SolveAttributed(DensityPolicy(tc.threshold, quantum, classical), tc.g, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Winner != tc.want.Name() {
			t.Fatalf("density %v, threshold %v: routed to %s, want %s", tc.g.Density(), tc.threshold, rep.Winner, tc.want.Name())
		}
		if rep.Optimal != (rep.Winner == quantum.Name()) {
			t.Fatalf("routed to %s: Optimal = %v, not the member's certificate", rep.Winner, rep.Optimal)
		}
		alone, err := tc.want.SolveSub(tc.g, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cut, alone) {
			t.Fatalf("routed %s cut %v differs from the member alone %v", rep.Winner, cut.Value, alone.Value)
		}
	}
}

// TestDensityPolicyAttributesNestedWinner: a composite member
// attributes through the router to the leaf solver that produced the
// cut, never to the composite.
func TestDensityPolicyAttributesNestedWinner(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(3))
	nested := solver.BestOfSolver{Solvers: []solver.Solver{
		solver.RandomSolver{}, solver.ExactSolver{},
	}}
	cut, rep, err := solver.SolveAttributed(DensityPolicy(1, nested, solver.GWSolver{}), g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := solver.SolveAttributed(nested, g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner != want.Winner || rep.Winner == "best" || len(rep.Attempts) != 1 || rep.Attempts[0].Value != cut.Value {
		t.Fatalf("router report %+v, nested member's winner %q", rep, want.Winner)
	}
}

func TestCoordinatedWithPolicyMixesSolvers(t *testing.T) {
	// Planted communities: the partition recovers the blobs, whose
	// densities (0.73 to 1) straddle the threshold.
	g, _ := graph.PlantedCommunities(4, 6, 0.9, 0.05, graph.Unweighted, rng.New(5))
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:   8,
		Solver:      DensityPolicy(0.95, solver.ExactSolver{}, solver.GWSolver{}),
		MergeSolver: solver.ExactSolver{},
		Parallelism: 2,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	checkMixed(t, res, "exact", "gw")
}

// checkMixed fails unless the run routed sub-graphs to both members
// and nowhere else.
func checkMixed(t *testing.T, res *qaoa2.Result, quantum, classical string) {
	t.Helper()
	routed := map[string]int{}
	for _, r := range res.SubReports {
		routed[r.Solver]++
	}
	if len(routed) != 2 || routed[quantum] == 0 || routed[classical] == 0 {
		t.Fatalf("routing %v, want both %s and %s", routed, quantum, classical)
	}
}

// TestDensityPolicyResumesCheckpoint: a routed run fingerprints by its
// threshold and members, not by an address, so rerunning it restores
// every solve task and a changed threshold restores none. At a budget
// of 4 the instance's 11 parts straddle the density threshold (8 route
// to exact, 3 to gw) and the merge graph divides again.
func TestDensityPolicyResumesCheckpoint(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.15, graph.Unweighted, rng.New(8))
	path := filepath.Join(t.TempDir(), "fig2.ckpt")
	restored := 0
	opts := qaoa2.Options{
		MaxQubits:      4,
		Solver:         DensityPolicy(0.7, solver.ExactSolver{}, solver.GWSolver{}),
		MergeSolver:    solver.GWSolver{},
		Parallelism:    3,
		Seed:           8,
		CheckpointPath: path,
		OnRuntimeEvent: func(ev rt.Event) {
			if ev.Restored {
				restored++
			}
		},
	}
	first, err := qaoa2.Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMixed(t, first, "exact", "gw")
	second, err := qaoa2.Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	solves := first.Stats.SubSolves + first.Stats.MergeSolves
	if restored != solves || second.Stats.Restored != solves {
		t.Fatalf("resume restored %d of %d solves (stats %+v)", restored, solves, second.Stats)
	}
	if !reflect.DeepEqual(first.Cut, second.Cut) {
		t.Fatalf("resumed cut %v differs from %v", second.Cut.Value, first.Cut.Value)
	}
	for i, r := range second.SubReports {
		if r.Solver != first.SubReports[i].Solver {
			t.Fatalf("sub-graph %d re-attributed to %s, solved by %s", i, r.Solver, first.SubReports[i].Solver)
		}
	}
	restored = 0
	opts.Solver = DensityPolicy(0.75, solver.ExactSolver{}, solver.GWSolver{})
	if _, err := qaoa2.Solve(g, opts); err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("a changed threshold resumed %d tasks", restored)
	}
}

func TestCoordinatedBeatsRandom(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.15, graph.Unweighted, rng.New(6))
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:   10,
		Solver:      solver.GWSolver{},
		MergeSolver: solver.GWSolver{},
		Parallelism: 3,
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	random := maxcut.RandomCut(g, 1, rng.New(7))
	if res.Cut.Value <= random.Value {
		t.Fatalf("coordinated %v not above random %v", res.Cut.Value, random.Value)
	}
}

// TestCoordinatedMergePinned pins one Fig. 2 run — GW leaves, a merge
// graph that divides again — to one cut at every worker count. The pin
// was re-captured when the coordinator became qaoa2.Solve: its leaves
// now draw the executor's per-part streams, so GW rounds other
// hyperplanes (the dedicated coordinator gave 78.9791099387327). It was
// re-captured again when the divide became one capped agglomeration:
// 16 first-level parts instead of 19 (the recursive divide gave
// 80.83345466232977).
func TestCoordinatedMergePinned(t *testing.T) {
	const (
		wantBits  = 0x40534668cfa92f0a // 77.10014716646052
		wantSpins = "--+--++-+---+---++-+-+--+----+-++++++++++---+++-+--+++-----+"
	)
	g := graph.ErdosRenyi(60, 0.12, graph.UniformWeights, rng.New(6))
	for _, workers := range []int{1, 3} {
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits: 5, Solver: solver.GWSolver{}, MergeSolver: solver.GWSolver{}, Parallelism: workers, Seed: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		spins := make([]byte, len(res.Cut.Spins))
		for v, s := range res.Cut.Spins {
			spins[v] = "-+"[(s+1)/2]
		}
		if math.Float64bits(res.Cut.Value) != wantBits || string(spins) != wantSpins ||
			res.Levels != 2 || res.SubGraphs != 16 {
			t.Fatalf("workers=%d: cut %v (%#x) over %d levels, %d sub-graphs, spins %s",
				workers, res.Cut.Value, math.Float64bits(res.Cut.Value), res.Levels, res.SubGraphs, spins)
		}
	}
}
