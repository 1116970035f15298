package qaoa2

import (
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// The per-solver attribution invariants (ISSUE 5 satellite): a
// composite run's SubReport.Solver always names the member that
// ACTUALLY produced the kept cut — verified independently by re-running
// every member standalone on the same derived rng streams — and the
// attribution is bit-identical at every Parallelism and equal to the
// reference recursion's. Wall-time telemetry (Attempts[i].Nanos) is
// explicitly outside the invariant.

// attributionMembers is the composite pool under test: deterministic,
// cheap, and genuinely competitive so different sub-graphs crown
// different winners — one-exchange wins exactly the parts where its
// local search lands on the optimum (it precedes exact, and ties keep
// the earliest member), exact wins the rest, random almost never.
func attributionMembers() []solver.Solver {
	return []solver.Solver{
		solver.RandomSolver{Trials: 1},
		solver.OneExchangeSolver{},
		solver.ExactSolver{},
	}
}

// expectedWinner recomputes, from scratch, which member wins part i of
// a solve with the given seed — the same Split derivations the
// composite solvers use internally.
func expectedWinner(t *testing.T, g *graph.Graph, part []int, i int, seed uint64) (string, float64) {
	t.Helper()
	sub, _, err := g.InducedSubgraph(part)
	if err != nil {
		t.Fatal(err)
	}
	subStream := rng.New(seed).Split(uint64(i) + 0x9e37)
	winner := ""
	best := 0.0
	for j, member := range attributionMembers() {
		cut, err := member.SolveSub(sub, subStream.Split(uint64(j)+1))
		if err != nil {
			t.Fatal(err)
		}
		if winner == "" || cut.Value > best {
			winner = member.Name()
			best = cut.Value
		}
	}
	return winner, best
}

func TestAttributionNamesActualWinnerEverywhere(t *testing.T) {
	g := graph.ErdosRenyi(36, 0.2, graph.UniformWeights, rng.New(41))
	parts, err := fixedPartition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 77

	composites := map[string]solver.Solver{
		"best": solver.BestOfSolver{Solvers: attributionMembers()},
	}
	for label, comp := range composites {
		opts := Options{MaxQubits: 6, Partition: parts, Solver: comp,
			MergeSolver: solver.OneExchangeSolver{}, Seed: seed}
		want, err := referenceSolve(g, opts)
		if err != nil {
			t.Fatalf("%s reference: %v", label, err)
		}
		for _, par := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			opts.Parallelism = par
			res, err := Solve(g, opts)
			if err != nil {
				t.Fatalf("%s par=%d: %v", label, par, err)
			}
			// Invariant 1: the reported solver is the recomputed
			// winner, and the reported value is its value.
			distinct := map[string]bool{}
			for i, sr := range res.SubReports {
				wantName, wantValue := expectedWinner(t, g, parts[i], i, seed)
				if sr.Solver != wantName || sr.Value != wantValue {
					t.Fatalf("%s par=%d: part %d attributed %q/%v, independent recomputation says %q/%v",
						label, par, i, sr.Solver, sr.Value, wantName, wantValue)
				}
				distinct[sr.Solver] = true
				// Invariant 2: attempts cover every member in pool
				// order, and the winner's attempt carries the kept
				// value.
				if len(sr.Attempts) != len(attributionMembers()) {
					t.Fatalf("%s: part %d has %d attempts, want %d",
						label, i, len(sr.Attempts), len(attributionMembers()))
				}
				winnerSeen := false
				for j, member := range attributionMembers() {
					if sr.Attempts[j].Solver != member.Name() {
						t.Fatalf("%s: part %d attempt %d names %q, want %q",
							label, i, j, sr.Attempts[j].Solver, member.Name())
					}
					if sr.Attempts[j].Solver == sr.Solver && sr.Attempts[j].Value == sr.Value {
						winnerSeen = true
					}
				}
				if !winnerSeen {
					t.Fatalf("%s: part %d winner %q not among its attempts %+v",
						label, i, sr.Solver, sr.Attempts)
				}
			}
			// The pool must be genuinely competitive or this test
			// proves nothing.
			if len(distinct) < 2 {
				t.Fatalf("%s: every part won by %v — pool not competitive, pick other members", label, distinct)
			}
			// Invariant 3: bit-identical (modulo Nanos) to the
			// reference at every parallelism.
			if err := sameResult(want, res); err != nil {
				t.Fatalf("%s par=%d: diverged from the reference: %v", label, par, err)
			}
		}
	}
}

// TestAttributionSurvivesCheckpointRestore: the checkpoint records the
// WINNER's name, so a resumed run re-attributes restored sub-solves to
// the member that actually produced the cut (with no attempts — the
// telemetry belongs to the run that solved).
func TestAttributionSurvivesCheckpointRestore(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.25, graph.Unweighted, rng.New(9))
	comp := solver.BestOfSolver{Solvers: attributionMembers()}
	opts := Options{
		MaxQubits:      6,
		Solver:         comp,
		MergeSolver:    solver.OneExchangeSolver{},
		Seed:           13,
		CheckpointPath: filepath.Join(t.TempDir(), "attr.ckpt"),
	}
	first, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	restores := 0
	opts.OnRuntimeEvent = func(ev rt.Event) {
		if ev.Restored {
			restores++
			if ev.Kind == "sub-solve" && ev.Solver == comp.Name() {
				t.Errorf("restored %s attributed to the composite %q, not its winner", ev.Task, ev.Solver)
			}
		}
	}
	second, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if restores == 0 {
		t.Fatal("second run restored nothing")
	}
	for i := range first.SubReports {
		f, s := first.SubReports[i], second.SubReports[i]
		if f.Solver != s.Solver || f.Value != s.Value {
			t.Fatalf("restore changed attribution of part %d: %q/%v → %q/%v",
				i, f.Solver, f.Value, s.Solver, s.Value)
		}
		if s.Attempts != nil {
			t.Fatalf("restored part %d carries attempts %+v", i, s.Attempts)
		}
	}
}

// uncertified hides a solver's optimality certificate: it is a plain
// Solver, so SolveAttributed reports its name and nothing else.
type uncertified struct{ inner solver.Solver }

func (u uncertified) Name() string { return u.inner.Name() }

func (u uncertified) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	return u.inner.SolveSub(g, r)
}

// TestCertifiedSkipKeepsAttributionShape: when the first member of a
// composite certifies its cut, the members behind it are skipped — and
// the sub-reports and the sub-solve events still list one attempt per
// member, the skipped ones by name only, while cut and winners are
// those of a run in which nobody could certify and every member ran.
func TestCertifiedSkipKeepsAttributionShape(t *testing.T) {
	g := graph.ErdosRenyi(36, 0.2, graph.Unweighted, rng.New(41))
	parts, err := fixedPartition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	members := []solver.Solver{solver.ExactSolver{}, solver.OneExchangeSolver{}, solver.RandomSolver{Trials: 1}}
	everyMemberRuns := []solver.Solver{uncertified{solver.ExactSolver{}}, solver.OneExchangeSolver{}, solver.RandomSolver{Trials: 1}}
	for label, build := range map[string]func([]solver.Solver) solver.Solver{
		"best": func(m []solver.Solver) solver.Solver { return solver.BestOfSolver{Solvers: m} },
	} {
		opts := Options{
			MaxQubits: 6, Partition: parts, MergeSolver: solver.OneExchangeSolver{}, Seed: 77,
		}
		opts.Solver = build(everyMemberRuns)
		want, err := Solve(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		events := map[int][]solver.Attempt{}
		opts.Solver = build(members)
		opts.OnRuntimeEvent = func(ev rt.Event) {
			if ev.Kind == "sub-solve" && ev.Stage == 0 {
				mu.Lock()
				events[ev.Index] = ev.Attempts
				mu.Unlock()
			}
		}
		res := solveVsReference(t, label, g, opts)
		if res.Cut.Value != want.Cut.Value || !slices.Equal(res.Cut.Spins, want.Cut.Spins) {
			t.Fatalf("%s: skipping changed the cut", label)
		}
		for i, sr := range res.SubReports {
			if sr.Solver != want.SubReports[i].Solver || sr.Value != want.SubReports[i].Value {
				t.Fatalf("%s: part %d won by %q/%v, every-member run says %q/%v", label,
					i, sr.Solver, sr.Value, want.SubReports[i].Solver, want.SubReports[i].Value)
			}
			for _, attempts := range [][]solver.Attempt{sr.Attempts, events[i]} {
				if len(attempts) != len(members) {
					t.Fatalf("%s: part %d has %d attempts for %d members", label, i, len(attempts), len(members))
				}
				if a := attempts[0]; a.Solver != "exact" || a.Value != sr.Value || a.Err != "" {
					t.Fatalf("%s: part %d first attempt %+v", label, i, a)
				}
				for j, m := range members[1:] {
					if a := attempts[j+1]; a != (solver.Attempt{Solver: m.Name(), Err: solver.SkippedOptimal}) {
						t.Fatalf("%s: part %d member %d reported %+v, want a bare skipped entry", label, i, j+1, a)
					}
				}
			}
		}
	}
}

// fixedPartition buckets nodes round-robin into parts of size cap — a
// deterministic explicit partition so the test can recompute each
// part's winner independently of the modularity partitioner.
func fixedPartition(g *graph.Graph, cap int) ([][]int, error) {
	n := g.N()
	var parts [][]int
	for start := 0; start < n; start += cap {
		end := start + cap
		if end > n {
			end = n
		}
		part := make([]int, 0, cap)
		for v := start; v < end; v++ {
			part = append(part, v)
		}
		parts = append(parts, part)
	}
	return parts, nil
}
