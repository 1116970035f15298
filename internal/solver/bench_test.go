package solver

import "testing"

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
