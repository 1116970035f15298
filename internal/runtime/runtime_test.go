package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// exactSolver mirrors solver.ExactSolver without importing qaoa2 (the
// dependency points the other way).
type exactSolver struct{}

func (exactSolver) Name() string { return "exact" }
func (exactSolver) SolveSub(g *graph.Graph, _ *rng.Rand) (maxcut.Cut, error) {
	return maxcut.BruteForce(g)
}

// annealSolver is a cheap stochastic solver for determinism tests.
type annealSolver struct{}

func (annealSolver) Name() string { return "anneal" }
func (annealSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	return maxcut.SimulatedAnnealing(g, maxcut.AnnealOptions{Sweeps: 30}, r), nil
}

// countingSolver wraps a solver and counts invocations; when failAfter
// > 0, invocation failAfter+1 and later return an error — simulating a
// run killed mid-solve.
type countingSolver struct {
	inner     solver.Solver
	calls     atomic.Int64
	failAfter int64
}

func (c *countingSolver) Name() string { return c.inner.Name() }
func (c *countingSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	n := c.calls.Add(1)
	if c.failAfter > 0 && n > c.failAfter {
		return maxcut.Cut{}, errors.New("killed")
	}
	return c.inner.SolveSub(g, r)
}

func testGraph(n int, p float64, seed uint64) *graph.Graph {
	return graph.ErdosRenyi(n, p, graph.Unweighted, rng.New(seed))
}

func solveOpts(mq int, seed uint64) Options {
	return Options{MaxQubits: mq, Solver: exactSolver{}, MergeSolver: exactSolver{}, Seed: seed}
}

func TestSolveValidCut(t *testing.T) {
	g := testGraph(40, 0.2, 1)
	res, err := Solve(g, solveOpts(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs < 2 || len(res.SubReports) != res.SubGraphs {
		t.Fatalf("subgraphs %d reports %d", res.SubGraphs, len(res.SubReports))
	}
	if res.Levels < 1 {
		t.Fatalf("levels %d", res.Levels)
	}
	if got := res.IntraCut + res.CrossCut; got != res.Cut.Value {
		t.Fatalf("intra+cross %v != value %v", got, res.Cut.Value)
	}
	if res.Stats.SubSolves == 0 || res.Stats.Tasks == 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestDirectSolveSmallGraph(t *testing.T) {
	g := graph.Complete(5)
	res, err := Solve(g, solveOpts(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 6 || res.Levels != 0 || res.SubGraphs != 1 {
		t.Fatalf("direct K5: %+v", res)
	}
	if res.Stats.Stages != 0 || res.Stats.SubSolves != 1 {
		t.Fatalf("direct stats %+v", res.Stats)
	}
}

// shortSolver returns a cut over one node fewer than its graph has.
type shortSolver struct{}

func (shortSolver) Name() string { return "short" }
func (shortSolver) SolveSub(g *graph.Graph, _ *rng.Rand) (maxcut.Cut, error) {
	return maxcut.Cut{Spins: make([]int8, g.N()-1)}, nil
}

// TestDirectSolveRejectsShortCut: a graph that fits the device is one
// solve task, and a cut with the wrong spin count fails it, as it does
// a sub-graph or merge solve.
func TestDirectSolveRejectsShortCut(t *testing.T) {
	_, err := Solve(graph.Complete(5), Options{MaxQubits: 8, Solver: shortSolver{}, MergeSolver: shortSolver{}})
	if err == nil || !strings.Contains(err.Error(), "4 spins") {
		t.Fatalf("short direct cut: err = %v", err)
	}
}

// TestOverflowingMergeGraphFails: the input's absolute weights sum
// within float64's range — each 7e291 rounds away against the largest
// value — but the exact leaf puts nodes 1 and 2 (joined by a negative
// edge) on one side, so the two cross edges 0-1 and 0-2 merge with one
// sign into 1.4e292, and the merge graph's absolute weights sum past
// the range. The stage fails with an error; the merge solver never
// sees the graph.
func TestOverflowingMergeGraphFails(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(1, 2, -1)
	g.MustAddEdge(0, 3, math.MaxFloat64)
	g.MustAddEdge(0, 1, 7e291)
	g.MustAddEdge(0, 2, 7e291)
	rq, err := solver.Build(solver.Spec{Name: "rqaoa", Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Solve(g, Options{MaxQubits: 2, Solver: exactSolver{}, MergeSolver: rq,
		Partition: [][]int{{0}, {1, 2}, {3}}})
	if err == nil || !strings.Contains(err.Error(), "must be finite") {
		t.Fatalf("overflowing merge graph: err = %v", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Solve(graph.New(0), solveOpts(8, 0))
	if err != nil || res.Cut.Value != 0 || len(res.Cut.Spins) != 0 {
		t.Fatalf("empty: %+v err=%v", res, err)
	}
}

func TestMissingSolversRejected(t *testing.T) {
	if _, err := Solve(graph.Complete(3), Options{}); err == nil {
		t.Fatal("nil solvers accepted")
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	g := testGraph(48, 0.15, 3)
	var base *Result
	for _, par := range []int{1, 2, 7} {
		opts := Options{MaxQubits: 6, Solver: annealSolver{}, MergeSolver: annealSolver{},
			Parallelism: par, Seed: 11}
		// The worker id is telemetry: always a pool slot, never identity.
		opts.OnEvent = func(ev Event) {
			if ev.Worker < 0 || ev.Worker >= par {
				t.Errorf("parallelism %d: %s ran on worker %d", par, ev.Task, ev.Worker)
			}
		}
		res, err := Solve(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats = Stats{} // scheduling-independent fields only
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("parallelism %d diverged:\n%+v\nvs\n%+v", par, base, res)
		}
	}
}

// TestEveryTaskTimed: partition, merge-build and stitch events carry
// their wall time as solve events do, and the timing stays telemetry:
// a run whose events are consumed writes the same checkpoint bytes
// (header fingerprint included) and finds the same cut as one whose
// events are not.
func TestEveryTaskTimed(t *testing.T) {
	g := testGraph(40, 0.2, 4)
	dir := t.TempDir()
	timed := map[string]bool{}
	var results []*Result
	var ckpts [][]byte
	for run, watch := range []bool{true, false} {
		path := filepath.Join(dir, fmt.Sprintf("run%d.ckpt", run))
		opts := Options{MaxQubits: 6, Solver: annealSolver{}, MergeSolver: annealSolver{},
			Parallelism: 1, Seed: 5, CheckpointPath: path}
		if watch {
			opts.OnEvent = func(ev Event) {
				if ev.Nanos <= 0 {
					t.Errorf("%s (%s) reports %d ns", ev.Task, ev.Kind, ev.Nanos)
				}
				timed[ev.Kind] = true
			}
		}
		res, err := Solve(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats = Stats{}
		results, ckpts = append(results, res), append(ckpts, b)
	}
	for _, kind := range []string{"partition", "sub-solve", "merge-build", "merge-solve", "stitch"} {
		if !timed[kind] {
			t.Errorf("no %s event seen", kind)
		}
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatalf("checkpoint bytes differ:\n%s\nvs\n%s", ckpts[0], ckpts[1])
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("cut differs:\n%+v\nvs\n%+v", results[0], results[1])
	}
}

// TestTaskKeysBuiltOnlyWhenRead: a stage task's id is formatted only
// for a reader — OnEvent for every task, the checkpoint for solve tasks
// — and reads as the ids the checkpoint fixtures hold.
func TestTaskKeysBuiltOnlyWhenRead(t *testing.T) {
	quiet := &solveState{}
	checkpointed := &solveState{ckpt: &Checkpoint{}}
	watched := &solveState{opts: Options{OnEvent: func(Event) {}}}
	for _, tc := range []struct {
		kind         taskKind
		stage, index int
		key          string
		solve        bool
	}{
		{kindPartition, 2, -1, "s2/partition", false},
		{kindSubSolve, 1, 7, "s1/sub7", true},
		{kindMergeBuild, 0, -1, "s0/merge-build", false},
		{kindMergeSolve, 3, -1, "s3/merge", true},
	} {
		if got := quiet.taskKey(tc.kind, tc.stage, tc.index); got != "" {
			t.Errorf("%s: unobserved solve built key %q", tc.kind, got)
		}
		if got := watched.taskKey(tc.kind, tc.stage, tc.index); got != tc.key {
			t.Errorf("%s: event key %q, want %q", tc.kind, got, tc.key)
		}
		want := ""
		if tc.solve {
			want = tc.key
		}
		if got := checkpointed.taskKey(tc.kind, tc.stage, tc.index); got != want {
			t.Errorf("%s: checkpoint-only key %q, want %q", tc.kind, got, want)
		}
	}
}

func TestEventsStreamInCompletionOrder(t *testing.T) {
	g := testGraph(30, 0.2, 5)
	var mu sync.Mutex
	var kinds []string
	subs := 0
	opts := solveOpts(6, 9)
	opts.OnEvent = func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "sub-solve" {
			subs++
			if ev.Value < 0 || ev.Nodes == 0 {
				t.Errorf("bad sub event %+v", ev)
			}
		}
	}
	res, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if subs != res.Stats.SubSolves {
		t.Fatalf("%d sub events, stats %+v", subs, res.Stats)
	}
	if kinds[0] != "partition" || kinds[len(kinds)-1] != "stitch" {
		t.Fatalf("event order %v", kinds)
	}
}

func TestExplicitPartitionValidation(t *testing.T) {
	g := testGraph(12, 0.4, 2)
	if _, err := Solve(g, Options{MaxQubits: 3, Solver: exactSolver{}, MergeSolver: exactSolver{},
		Partition: [][]int{{0, 1, 2, 3}}}); err == nil {
		t.Fatal("oversized part accepted")
	}
	if _, err := Solve(g, Options{MaxQubits: 4, Solver: exactSolver{}, MergeSolver: exactSolver{},
		Partition: [][]int{{}}}); err == nil {
		t.Fatal("empty part accepted")
	}
	if _, err := Solve(g, Options{MaxQubits: 4, Solver: exactSolver{}, MergeSolver: exactSolver{},
		Partition: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}}); err == nil {
		t.Fatal("partial cover accepted")
	}
}

func TestSolverErrorPropagates(t *testing.T) {
	g := testGraph(30, 0.2, 4)
	cs := &countingSolver{inner: exactSolver{}, failAfter: 2}
	opts := Options{MaxQubits: 6, Solver: cs, MergeSolver: cs, Seed: 1}
	if _, err := Solve(g, opts); err == nil {
		t.Fatal("solver error swallowed")
	}
}

func TestCheckpointResumeAfterKill(t *testing.T) {
	g := testGraph(44, 0.18, 6)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	// Reference: uninterrupted run, no checkpoint.
	want, err := Solve(g, Options{MaxQubits: 6, Solver: annealSolver{}, MergeSolver: annealSolver{},
		Seed: 21})
	if err != nil {
		t.Fatal(err)
	}

	// First run dies after 3 completed solves (Parallelism 1 so the
	// failure interleaves deterministically enough to leave completed
	// work behind).
	killed := &countingSolver{inner: annealSolver{}, failAfter: 3}
	_, err = Solve(g, Options{MaxQubits: 6, Solver: killed, MergeSolver: killed,
		Parallelism: 1, Seed: 21, CheckpointPath: path})
	if err == nil {
		t.Fatal("killed run succeeded")
	}
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("checkpoint missing after kill: %v", serr)
	}

	// Resume with a healthy solver: restored tasks must not re-solve,
	// and the result must match the uninterrupted reference exactly.
	resumed := &countingSolver{inner: annealSolver{}}
	var restoredEvents int
	res, err := Solve(g, Options{MaxQubits: 6, Solver: resumed, MergeSolver: resumed,
		Seed: 21, CheckpointPath: path,
		OnEvent: func(ev Event) {
			if ev.Restored {
				restoredEvents++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restored != 3 || restoredEvents != 3 {
		t.Fatalf("restored %d (events %d), want 3", res.Stats.Restored, restoredEvents)
	}
	if got := int(resumed.calls.Load()); got != res.Stats.SubSolves+res.Stats.MergeSolves {
		t.Fatalf("resume invoked solver %d times, stats %+v", got, res.Stats)
	}
	res.Stats, want.Stats = Stats{}, Stats{}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("resumed result differs:\n%+v\nvs\n%+v", res, want)
	}

	// A third run restores everything and never calls a solver.
	third := &countingSolver{inner: annealSolver{}}
	res3, err := Solve(g, Options{MaxQubits: 6, Solver: third, MergeSolver: third,
		Seed: 21, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if third.calls.Load() != 0 {
		t.Fatalf("full checkpoint still invoked solver %d times", third.calls.Load())
	}
	res3.Stats = Stats{}
	if !reflect.DeepEqual(res3, want) {
		t.Fatal("fully restored result differs")
	}
}

// TestCheckpointVersionGatesResume: a checkpoint written under version
// 1 — leaf records of the full-budget optimizer — restores nothing, and
// a version-2 checkpoint restores every task with bit-identical spins.
func TestCheckpointVersionGatesResume(t *testing.T) {
	g := testGraph(40, 0.2, 12)
	path := filepath.Join(t.TempDir(), "ver.ckpt")
	opts := Options{MaxQubits: 6, Solver: annealSolver{}, MergeSolver: annealSolver{}, Seed: 5}
	want, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	tasks := want.Stats.SubSolves + want.Stats.MergeSolves

	withPath := opts
	withPath.CheckpointPath = path
	if _, err := Solve(g, withPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"version":2,`) {
		t.Fatalf("checkpoint header %.40q, want version 2", data)
	}
	old := strings.Replace(string(data), `{"version":2,`, `{"version":1,`, 1)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		restored int
	}{{"version 1", 0}, {"version 2", tasks}} {
		cs := &countingSolver{inner: annealSolver{}}
		run := withPath
		run.Solver, run.MergeSolver = cs, cs
		res, err := Solve(g, run)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Restored != c.restored || int(cs.calls.Load()) != tasks-c.restored {
			t.Fatalf("%s: restored %d with %d solver calls, want %d of %d tasks",
				c.name, res.Stats.Restored, cs.calls.Load(), c.restored, tasks)
		}
		res.Stats = Stats{}
		ref := *want
		ref.Stats = Stats{}
		if !reflect.DeepEqual(*res, ref) {
			t.Fatalf("%s: resumed result differs from the uninterrupted run", c.name)
		}
	}
}

func TestInterruptAbortsAndResumes(t *testing.T) {
	g := testGraph(40, 0.2, 8)
	path := filepath.Join(t.TempDir(), "int.ckpt")
	interrupt := make(chan struct{})
	var once sync.Once
	_, err := Solve(g, Options{MaxQubits: 5, Solver: annealSolver{}, MergeSolver: annealSolver{},
		Parallelism: 2, Seed: 33, CheckpointPath: path,
		Interrupt: interrupt,
		OnEvent: func(ev Event) {
			if ev.Kind == "sub-solve" {
				once.Do(func() { close(interrupt) })
			}
		}})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	want, err := Solve(g, Options{MaxQubits: 5, Solver: annealSolver{}, MergeSolver: annealSolver{},
		Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Options{MaxQubits: 5, Solver: annealSolver{}, MergeSolver: annealSolver{},
		Seed: 33, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restored == 0 {
		t.Fatal("nothing restored after interrupt")
	}
	res.Stats, want.Stats = Stats{}, Stats{}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("post-interrupt resume differs from uninterrupted run")
	}
}

func TestCheckpointIgnoredOnConfigChange(t *testing.T) {
	g := testGraph(36, 0.2, 9)
	path := filepath.Join(t.TempDir(), "cfg.ckpt")
	if _, err := Solve(g, Options{MaxQubits: 6, Solver: annealSolver{}, MergeSolver: annealSolver{},
		Seed: 1, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	// Different seed: the old entries must not resume.
	cs := &countingSolver{inner: annealSolver{}}
	res, err := Solve(g, Options{MaxQubits: 6, Solver: cs, MergeSolver: cs,
		Seed: 2, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restored != 0 || cs.calls.Load() == 0 {
		t.Fatalf("stale checkpoint resumed: %+v", res.Stats)
	}
}

func TestEdgelessGraphTerminates(t *testing.T) {
	// 20 isolated nodes with cap 4: every part is a singleton and the
	// merge graph is edgeless — the recursion guard must terminate.
	g := graph.New(20)
	res, err := Solve(g, solveOpts(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 0 {
		t.Fatalf("edgeless cut %v", res.Cut.Value)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedCommunityEdgelessMergeTerminates(t *testing.T) {
	// Edges only inside one 4-node clique; 12 extra isolated nodes.
	// All cross-part weight is zero, so the merge graph is edgeless
	// while exceeding the cap.
	g := graph.New(16)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustAddEdge(i, j, 1)
		}
	}
	res, err := Solve(g, solveOpts(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 4 { // K4 max cut
		t.Fatalf("cut %v want 4", res.Cut.Value)
	}
}

func TestManyLevelsDeepRecursion(t *testing.T) {
	g := testGraph(64, 0.15, 8)
	res, err := Solve(g, solveOpts(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 2 || res.Stats.Stages < 2 {
		t.Fatalf("expected multi-level: levels=%d stats=%+v", res.Levels, res.Stats)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestGraphFingerprintSensitivity(t *testing.T) {
	a := testGraph(10, 0.4, 1)
	b := testGraph(10, 0.4, 2)
	if GraphFingerprint(a) == GraphFingerprint(b) {
		t.Fatal("different graphs share a fingerprint")
	}
	if GraphFingerprint(a) != GraphFingerprint(testGraph(10, 0.4, 1)) {
		t.Fatal("rebuilding the graph changed the fingerprint")
	}
}

func BenchmarkRuntimeExact64(b *testing.B) {
	g := testGraph(64, 0.15, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, solveOpts(10, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleSolve() {
	g := graph.Bipartite(6, 6)
	res, _ := Solve(g, Options{MaxQubits: 16, Solver: exactSolver{}, MergeSolver: exactSolver{}})
	fmt.Println(res.Cut.Value)
	// Output: 36
}
