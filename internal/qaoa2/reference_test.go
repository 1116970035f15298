package qaoa2

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/partition"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// referenceSolve is the synchronous QAOA² recursion that the task-graph
// executor (internal/runtime) replaced, kept as its differential
// oracle: partition, solve the parts one after another, merge, recurse.
// It derives every random stream the way the executor must —
// Split(i+0x9e37) per part, Split(0x51ed) for a merge solve, seed^0xabcd
// per divide level, Split(0x1e4c) for the stall guard — and has no
// goroutines, checkpoint or events. Inputs are trusted (the executor's
// validation has its own tests).
func referenceSolve(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	var err error
	n := g.N()
	if n == 0 {
		return &Result{Cut: maxcut.Cut{Spins: []int8{}}}, nil
	}
	if n <= opts.MaxQubits && opts.Partition == nil {
		cut, rep, err := solver.SolveAttributed(opts.Solver, g, rng.New(opts.Seed))
		if err != nil {
			return nil, err
		}
		return &Result{Cut: cut, SubGraphs: 1, IntraCut: cut.Value, SubReports: []rt.SubReport{{
			Nodes: n, Edges: g.M(), Value: cut.Value, Solver: rep.Winner, Attempts: rep.Attempts,
		}}}, nil
	}
	parts := opts.Partition
	if parts == nil {
		if parts, err = partition.SizeCapped(g, opts.MaxQubits); err != nil {
			return nil, err
		}
	}
	reports := make([]rt.SubReport, len(parts))
	cuts := make([]maxcut.Cut, len(parts))
	for i, part := range parts {
		sub, _, err := g.InducedSubgraph(part)
		if err != nil {
			return nil, err
		}
		cut, rep, err := solver.SolveAttributed(opts.Solver, sub, rng.New(opts.Seed).Split(uint64(i)+0x9e37))
		if err != nil {
			return nil, fmt.Errorf("reference: sub-graph %d: %w", i, err)
		}
		cuts[i] = cut
		reports[i] = rt.SubReport{Nodes: sub.N(), Edges: sub.M(), Value: cut.Value,
			Solver: rep.Winner, Attempts: rep.Attempts}
	}
	cut, levels, groupOf, err := referenceMerge(g, parts, cuts, opts)
	if err != nil {
		return nil, err
	}
	intra := 0.0
	for _, e := range g.Edges() {
		if groupOf[e.I] == groupOf[e.J] && cut.Spins[e.I] != cut.Spins[e.J] {
			intra += e.W
		}
	}
	return &Result{Cut: cut, Levels: levels, SubGraphs: len(parts), SubReports: reports,
		IntraCut: intra, CrossCut: cut.Value - intra}, nil
}

// referenceMerge is the merge step of the reference recursion: stitch, contract with signed weights, orient
// the merge nodes — trivially when the merge graph is edgeless, by
// 1-exchange when contraction stalled, by the merge solver when it fits
// the device, by recursing otherwise — and flip. opts carries defaults.
func referenceMerge(g *graph.Graph, parts [][]int, cuts []maxcut.Cut, opts Options) (maxcut.Cut, int, []int, error) {
	n := g.N()
	spins := make([]int8, n)
	groupOf := make([]int, n)
	for i, part := range parts {
		for k, orig := range part {
			spins[orig] = cuts[i].Spins[k]
			groupOf[orig] = i
		}
	}
	merged, err := g.Contract(groupOf, len(parts), func(e graph.Edge) float64 {
		if spins[e.I] != spins[e.J] {
			return -e.W
		}
		return e.W
	})
	if err != nil {
		return maxcut.Cut{}, 0, nil, err
	}
	var flips []int8
	levels := 1
	switch {
	case merged.M() == 0:
		flips = make([]int8, merged.N())
		for i := range flips {
			flips[i] = 1
		}
	case merged.N() <= opts.MaxQubits:
		cut, err := opts.MergeSolver.SolveSub(merged, rng.New(opts.Seed).Split(0x51ed))
		if err != nil {
			return maxcut.Cut{}, 0, nil, err
		}
		flips = cut.Spins
	case merged.N() >= n:
		flips = maxcut.OneExchange(merged, rng.New(opts.Seed).Split(0x1e4c)).Spins
	default:
		sub, err := referenceSolve(merged, Options{
			MaxQubits:   opts.MaxQubits,
			Solver:      opts.MergeSolver,
			MergeSolver: opts.MergeSolver,
			Seed:        opts.Seed ^ 0xabcd,
		})
		if err != nil {
			return maxcut.Cut{}, 0, nil, err
		}
		flips, levels = sub.Cut.Spins, 1+sub.Levels
	}
	for v := range spins {
		if flips[groupOf[v]] < 0 {
			spins[v] = -spins[v]
		}
	}
	return maxcut.Cut{Spins: spins, Value: g.CutValue(spins)}, levels, groupOf, nil
}

// sameResult compares everything that identifies a solve — spins, the
// bits of every value, levels, sub-graph count and the sub-report
// sequence with its winners — and leaves out telemetry (Stats,
// per-attempt wall time).
func sameResult(a, b *Result) error {
	if len(a.Cut.Spins) != len(b.Cut.Spins) {
		return fmt.Errorf("%d spins vs %d", len(a.Cut.Spins), len(b.Cut.Spins))
	}
	for v := range a.Cut.Spins {
		if a.Cut.Spins[v] != b.Cut.Spins[v] {
			return fmt.Errorf("spin %d differs", v)
		}
	}
	bits := math.Float64bits
	if bits(a.Cut.Value) != bits(b.Cut.Value) || bits(a.IntraCut) != bits(b.IntraCut) ||
		bits(a.CrossCut) != bits(b.CrossCut) {
		return fmt.Errorf("value/intra/cross %v/%v/%v vs %v/%v/%v",
			a.Cut.Value, a.IntraCut, a.CrossCut, b.Cut.Value, b.IntraCut, b.CrossCut)
	}
	if a.Levels != b.Levels || a.SubGraphs != b.SubGraphs || len(a.SubReports) != len(b.SubReports) {
		return fmt.Errorf("levels/sub-graphs/reports %d/%d/%d vs %d/%d/%d",
			a.Levels, a.SubGraphs, len(a.SubReports), b.Levels, b.SubGraphs, len(b.SubReports))
	}
	for i := range a.SubReports {
		if !sameSubReport(a.SubReports[i], b.SubReports[i]) {
			return fmt.Errorf("sub-report %d: %+v vs %+v", i, a.SubReports[i], b.SubReports[i])
		}
	}
	return nil
}

// sameSubReport compares two sub-reports modulo per-attempt wall
// time, which is telemetry (varies run to run) rather than identity.
func sameSubReport(a, b rt.SubReport) bool {
	if a.Nodes != b.Nodes || a.Edges != b.Edges || math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
		a.Solver != b.Solver || len(a.Attempts) != len(b.Attempts) {
		return false
	}
	for i := range a.Attempts {
		x, y := a.Attempts[i], b.Attempts[i]
		if x.Solver != y.Solver || x.Value != y.Value || x.Err != y.Err {
			return false
		}
	}
	return true
}

// solveVsReference runs the executor at Parallelism 1, 4 and GOMAXPROCS
// and asserts each result is the reference recursion's, then returns it.
func solveVsReference(t *testing.T, label string, g *graph.Graph, opts Options) *Result {
	t.Helper()
	want, err := referenceSolve(g, opts)
	if err != nil {
		t.Fatalf("%s reference: %v", label, err)
	}
	var res *Result
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts.Parallelism = par
		if res, err = Solve(g, opts); err != nil {
			t.Fatalf("%s par=%d: %v", label, par, err)
		}
		if err := sameResult(want, res); err != nil {
			t.Fatalf("%s par=%d: executor diverged from the reference: %v", label, par, err)
		}
	}
	return res
}
