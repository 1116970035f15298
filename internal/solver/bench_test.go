package solver

import (
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

// BenchmarkMLAdaptiveDispatch measures the ml-adaptive DECISION path —
// feature extraction plus the logistic gate — in isolation from any
// solve. This is the overhead a coordinator pays per sub-graph before
// dispatching to quantum or classical resources, and the entry the CI
// bench-regression baseline tracks (cmd/maxcutbench -json measures the
// identical path as the "ml-adaptive-dispatch" configuration).
func BenchmarkMLAdaptiveDispatch(b *testing.B) {
	g := graph.ErdosRenyi(16, 0.5, graph.Unweighted, rng.New(99))
	s := MLAdaptiveSolver{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Choose(g) == nil {
			b.Fatal("nil choice")
		}
	}
}

// BenchmarkRegistryBuild tracks solver-construction overhead: Build is
// on the serve daemon's submission path, so it must stay trivially
// cheap relative to a solve.
func BenchmarkRegistryBuild(b *testing.B) {
	spec := Spec{Name: "best", Layers: 3, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}
