package qaoa2

import (
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// TestSeedDeterminismAcrossParallelismAndPaths is the determinism
// regression: an identical Seed must yield an identical Result — cut
// value, spins, levels and the full sub-report sequence — for
// Parallelism ∈ {1, 4, GOMAXPROCS}, and that Result is the reference
// recursion's.
func TestSeedDeterminismAcrossParallelismAndPaths(t *testing.T) {
	g := graph.ErdosRenyi(56, 0.12, graph.UniformWeights, rng.New(17))
	// GW rides along as leaf and merge solver (the contracted merge graph
	// carries signed weights): its relaxation owns its embedding and its
	// seeded stream per solve, so concurrent leaves share nothing.
	for _, sub := range []solver.Solver{cheapAnneal(), solver.GWSolver{}} {
		solveVsReference(t, sub.Name(), g, Options{MaxQubits: 7, Solver: sub, MergeSolver: sub, Seed: 99})
	}
	// And a different seed must (in general) change the result stream:
	// the solver consumed randomness, so at minimum the derived spins
	// come from different streams. We only assert it solves cleanly.
	if _, err := Solve(g, Options{MaxQubits: 7, Solver: cheapAnneal(), Seed: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeMatchesUninterrupted covers the acceptance
// criterion at the qaoa2 layer: a run killed mid-solve (via
// Options.Interrupt, with completed work already checkpointed) and
// resumed from its CheckpointPath returns a Result identical to an
// uninterrupted run with the same seed.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.15, graph.Unweighted, rng.New(23))
	base := Options{MaxQubits: 6, Solver: cheapAnneal(), MergeSolver: cheapAnneal(), Seed: 55}

	want, err := Solve(g, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "resume.ckpt")
	killed := base
	killed.Parallelism = 1
	killed.CheckpointPath = path
	interrupt := make(chan struct{})
	killed.Interrupt = interrupt
	var once sync.Once
	completed := 0
	killed.OnRuntimeEvent = func(ev rt.Event) {
		if ev.Kind == "sub-solve" {
			completed++
			if completed == 4 {
				once.Do(func() { close(interrupt) })
			}
		}
	}
	if _, err := Solve(g, killed); !errors.Is(err, rt.ErrInterrupted) {
		t.Fatalf("killed run: err = %v, want ErrInterrupted", err)
	}

	resumed := base
	resumed.CheckpointPath = path
	restores := 0
	resumed.OnRuntimeEvent = func(ev rt.Event) {
		if ev.Restored {
			restores++
		}
	}
	got, err := Solve(g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if restores == 0 {
		t.Fatal("resume restored nothing from the checkpoint")
	}
	if got.Stats.Restored != restores {
		t.Fatalf("stats count %d restores, events %d", got.Stats.Restored, restores)
	}
	want.Stats, got.Stats = rt.Stats{}, rt.Stats{} // what ran, not what was found
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCheckpointStaleOnSolverConfigChange: two solvers sharing a
// Name() but differing in internal configuration must never share a
// checkpoint — the config fingerprint in the header has to invalidate
// the store.
func TestCheckpointStaleOnSolverConfigChange(t *testing.T) {
	g := graph.ErdosRenyi(36, 0.2, graph.Unweighted, rng.New(31))
	path := filepath.Join(t.TempDir(), "cfg.ckpt")
	mk := func(sweeps int) Options {
		s := solver.AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: sweeps}}
		return Options{MaxQubits: 6, Solver: s, MergeSolver: s, Seed: 5, CheckpointPath: path}
	}
	if _, err := Solve(g, mk(30)); err != nil {
		t.Fatal(err)
	}
	restores := 0
	opts := mk(200) // same Name() "anneal", different config
	opts.OnRuntimeEvent = func(ev rt.Event) {
		if ev.Restored {
			restores++
		}
	}
	if _, err := Solve(g, opts); err != nil {
		t.Fatal(err)
	}
	if restores != 0 {
		t.Fatalf("checkpoint from Sweeps=30 resumed %d tasks under Sweeps=200", restores)
	}
	// And an unchanged config still resumes fully.
	restores = 0
	opts2 := mk(200)
	opts2.OnRuntimeEvent = opts.OnRuntimeEvent
	if _, err := Solve(g, opts2); err != nil {
		t.Fatal(err)
	}
	if restores == 0 {
		t.Fatal("identical config failed to resume")
	}
}

// TestCheckpointResumesWithRebuiltSpec: a solver built from the
// registry is identified by its ConfigTag alone, so a checkpoint
// written under solver.Build(spec) restores every solve task when the
// run resumes with a solver freshly built from an equal spec — the
// daemon restart path — and none when the spec asks for other layers.
func TestCheckpointResumesWithRebuiltSpec(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.2, graph.Unweighted, rng.New(43))
	path := filepath.Join(t.TempDir(), "spec.ckpt")
	restores := 0
	run := func(layers int) *Result {
		t.Helper()
		s, err := solver.Build(solver.Spec{Name: "qaoa", Layers: layers, MaxIters: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, Options{MaxQubits: 6, Solver: s, Seed: 5, CheckpointPath: path,
			OnRuntimeEvent: func(ev rt.Event) {
				if ev.Restored {
					restores++
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(1)
	solves := first.Stats.SubSolves + first.Stats.MergeSolves
	if solves == 0 || restores != 0 {
		t.Fatalf("fresh run: %d solves, %d restores", solves, restores)
	}
	second := run(1)
	if restores != solves || second.Stats.Restored != solves {
		t.Fatalf("equal spec restored %d of %d solves (stats %+v)", restores, solves, second.Stats)
	}
	if !reflect.DeepEqual(first.Cut, second.Cut) {
		t.Fatalf("resumed cut %v differs from %v", second.Cut.Value, first.Cut.Value)
	}
	restores = 0
	run(2)
	if restores != 0 {
		t.Fatalf("a spec with other layers resumed %d tasks", restores)
	}
}

// TestCheckpointFromOldQAOAOptionsRestoresNothing: testdata holds
// checkpoints written by older trees whose solver options had fields
// since deleted, so their headers carry older ConfigTags. Today's equal
// spec restores none of the records, reruns the solve and returns the
// pinned cut, on every kernel tier.
//   - qaoa-leaf: qaoa.Options still had its optimizer switch and
//     initial-angle override. The older tree recorded cut 40
//     (+--+--++--+++-+-+-++--++): one leaf holds two optima of equal
//     probability, and its decode took whichever the avx512 tier's
//     last bits ranked first. The tie-set decode takes the lower index
//     on every tier, and the stitched cut reads 42.
//   - gw-leaf-gw-merge: sdp.Options still had Method and Rho (the ADMM
//     reference solver); GW has no kernel tier, so this row holds on
//     every tier.
func TestCheckpointFromOldQAOAOptionsRestoresNothing(t *testing.T) {
	for _, tc := range []struct {
		name, fixture, spec string
		layers              int
		cut                 float64
		spins               string
	}{
		{"qaoa-leaf", "qaoa-leaf-old-options.ckpt", "qaoa", 2, 42, "-+-+---+--+++-+-+-++-+++"},
		{"gw-leaf-gw-merge", "gw-leaf-old-sdp-options.ckpt", "gw", 0, 41, "-+-+-++----+-+-+-+-++-++"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			if records := strings.Count(string(data), "\n") - 1; records != 6 {
				t.Fatalf("fixture holds %d records, want 6", records)
			}
			path := filepath.Join(t.TempDir(), "old.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := solver.Build(solver.Spec{Name: tc.spec, Layers: tc.layers, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			restores := 0
			g := graph.ErdosRenyi(24, 0.2, graph.Unweighted, rng.New(42))
			res, err := Solve(g, Options{MaxQubits: 6, Solver: s, Seed: 5, Parallelism: 1, CheckpointPath: path,
				OnRuntimeEvent: func(ev rt.Event) {
					if ev.Restored {
						restores++
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			if restores != 0 || res.Stats.Restored != 0 {
				t.Fatalf("restored %d records (stats %d), want 0", restores, res.Stats.Restored)
			}
			spins := make([]byte, len(res.Cut.Spins))
			for i, x := range res.Cut.Spins {
				spins[i] = map[int8]byte{1: '+', -1: '-'}[x]
			}
			if res.Cut.Value != tc.cut || string(spins) != tc.spins {
				t.Fatalf("cut %v spins %s, want the recorded %v %s", res.Cut.Value, spins, tc.cut, tc.spins)
			}
		})
	}
}

// TestDagCheckpointShapedSolveIsPinned: one solve shaped as the
// benchmark's dag-checkpoint workload — ER(1200, 8/n), best(qaoa p=2,
// gw) leaves, a gw merge, 12-qubit parts, the task-graph runtime with
// its checkpoint on — returns the pinned cut and spins and writes the
// pinned checkpoint bytes. The values were read before a leaf's set-up
// and decode stopped allocating, so that work moved no output: not a
// leaf's angles, streams or decoded spins, nor a record's encoding.
func TestDagCheckpointShapedSolveIsPinned(t *testing.T) {
	g := graph.ErdosRenyi(1200, 8.0/1200, graph.Unweighted, rng.New(1).Split(0x1a57))
	leaf, err := solver.Build(solver.Spec{Name: "best", Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	merge, err := solver.Build(solver.Spec{Name: "gw"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dag.ckpt")
	res, err := Solve(g, Options{MaxQubits: 12, Solver: leaf, MergeSolver: merge, Parallelism: 1,
		Runtime: true, Seed: 1, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fnvOf := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	got := [3]uint64{uint64(res.Cut.Value), fnvOf([]byte(rt.EncodeSpins(res.Cut.Spins))), fnvOf(data)}
	want := [3]uint64{3115, 0x9793d7591577ed83, 0xfa2d6649d4e45e96}
	if got != want {
		t.Fatalf("cut, spins FNV, checkpoint FNV = %d, %#x, %#x; want %d, %#x, %#x",
			got[0], got[1], got[2], want[0], want[1], want[2])
	}
}
