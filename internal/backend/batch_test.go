// Tests for the batched multi-point evaluation API: the fused batch
// path and the generic sequential fallback must both return per-call
// Evaluate's energy bits, the fused batch must pin no statevector
// beyond the ansatz's own, and the fused steady-state loop must not
// allocate.
package backend_test

import (
	"math"
	"runtime"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

func batchParams(layers, k int, seed uint64) (gammas, betas [][]float64) {
	pr := rng.New(seed)
	gammas = make([][]float64, k)
	betas = make([][]float64, k)
	for i := range gammas {
		gammas[i] = make([]float64, layers)
		betas[i] = make([]float64, layers)
		for l := 0; l < layers; l++ {
			gammas[i][l] = pr.Float64() * 2 * math.Pi
			betas[i][l] = pr.Float64() * math.Pi
		}
	}
	return gammas, betas
}

func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	g := graph.ErdosRenyi(10, 0.4, graph.UniformWeights, rng.New(7))
	const layers, k = 2, 9
	gammas, betas := batchParams(layers, k, 11)

	// Fused implements BatchEvaluator; Dense takes the fallback. Both
	// evaluate the vectors in turn, so the energies are Evaluate's bits.
	for _, be := range []backend.Backend{backend.Fused{}, backend.Dense{}} {
		ans, err := be.Prepare(g, backend.Config{Layers: layers})
		if err != nil {
			t.Fatal(err)
		}
		if _, native := ans.(backend.BatchEvaluator); native != (be.Name() == "fused") {
			t.Fatalf("%s: unexpected BatchEvaluator support %v", be.Name(), native)
		}
		energies := make([]float64, k)
		if err := backend.EvaluateBatch(ans, gammas, betas, energies); err != nil {
			t.Fatal(err)
		}
		for i := range gammas {
			want, _, err := ans.Evaluate(gammas[i], betas[i])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(energies[i]) != math.Float64bits(want) {
				t.Fatalf("%s: batch energy[%d] = %v, Evaluate = %v", be.Name(), i, energies[i], want)
			}
		}
		// Shape errors must be rejected, not truncated.
		if err := backend.EvaluateBatch(ans, gammas, betas[:k-1], energies); err == nil {
			t.Fatalf("%s: mismatched beta batch accepted", be.Name())
		}
		if err := backend.EvaluateBatch(ans, gammas, betas, energies[:k-1]); err == nil {
			t.Fatalf("%s: short energy slice accepted", be.Name())
		}
	}
}

// TestFusedEvaluateSteadyStateAllocs pins the acceptance criterion at
// the backend level: the optimizer-loop Evaluate allocates nothing.
func TestFusedEvaluateSteadyStateAllocs(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.5, graph.Unweighted, rng.New(3))
	ans, err := backend.Fused{}.Prepare(g, backend.Config{Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	gammas := []float64{0.3, 0.6, 0.9}
	betas := []float64{0.5, 0.4, 0.1}
	if _, _, err := ans.Evaluate(gammas, betas); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ans.Evaluate(gammas, betas); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused Evaluate allocates %v objects per call, want 0", allocs)
	}
}

// TestFusedEvaluateBatchPinsNoStatevector: a batch runs on the
// ansatz's own engine, so with the engine pools emptied (two garbage
// collections) the first EvaluateBatch of 8 vectors on an evaluated
// 16-qubit fused ansatz allocates less than one statevector.
func TestFusedEvaluateBatchPinsNoStatevector(t *testing.T) {
	g := graph.ErdosRenyi(16, 0.5, graph.Unweighted, rng.New(16))
	ans, err := backend.Fused{}.Prepare(g, backend.Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Release(ans)
	gammas, betas := batchParams(2, 8, 23)
	if _, _, err := ans.Evaluate(gammas[0], betas[0]); err != nil {
		t.Fatal(err)
	}
	energies := make([]float64, len(gammas))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = backend.EvaluateBatch(ans, gammas, betas, energies)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const statevector = 16 << 15 // the Z2 engine's 2^15 complex128 amplitudes
	if got := after.TotalAlloc - before.TotalAlloc; got >= statevector {
		t.Fatalf("first batch allocated %d bytes, want less than one %d-byte statevector", got, statevector)
	}
}

func TestEvaluateBatchRepeatedCallsReuseBuffers(t *testing.T) {
	g := graph.ErdosRenyi(9, 0.5, graph.Unweighted, rng.New(5))
	ans, err := backend.Fused{}.Prepare(g, backend.Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gammas, betas := batchParams(2, 6, 19)
	first := make([]float64, 6)
	if err := backend.EvaluateBatch(ans, gammas, betas, first); err != nil {
		t.Fatal(err)
	}
	second := make([]float64, 6)
	if err := backend.EvaluateBatch(ans, gammas, betas, second); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("batch call not reproducible at %d: %v then %v", i, first[i], second[i])
		}
	}
}

// BenchmarkFusedPrepare20 times compiling one paper-scale leaf: a
// 20-node, ~95-edge unweighted graph (G(20, 0.5), the density of the
// benchmark's leaf-heavy communities) into the int32 level index over
// the engine's index space (2^19 entries; 2^20 for the Full variant),
// its level tables and the engine. ReportAllocs pins that Prepare holds
// the index and the state and nothing of 2^n size besides: no float64
// cut table, which Diagonal() builds only when a caller asks for it.
//
// The Released variants release the ansatz after each Prepare, as a
// QAOA² leaf releases it once its cut is read: from the second
// iteration on, the engine and the level index come back from their
// pools, and ReportAllocs shows what a leaf of this size still
// allocates — no 2^n buffer.
func BenchmarkFusedPrepare20(b *testing.B)             { benchmarkFusedPrepare20(b, false, false) }
func BenchmarkFusedPrepareFull20(b *testing.B)         { benchmarkFusedPrepare20(b, true, false) }
func BenchmarkFusedPrepareReleased20(b *testing.B)     { benchmarkFusedPrepare20(b, false, true) }
func BenchmarkFusedPrepareReleasedFull20(b *testing.B) { benchmarkFusedPrepare20(b, true, true) }

func benchmarkFusedPrepare20(b *testing.B, full, release bool) {
	g := graph.ErdosRenyi(20, 0.5, graph.Unweighted, rng.New(20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := backend.Fused{Full: full}.Prepare(g, backend.Config{Layers: 3})
		if err != nil {
			b.Fatal(err)
		}
		if release {
			backend.Release(a)
		}
	}
}
