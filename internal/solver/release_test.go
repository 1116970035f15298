package solver

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
)

// TestSecondLeafAllocatesNoStatevector: a QAOA leaf releases its engine
// and level index once its cut is read, so after one warm-up 16-node
// leaf the next leaf of that size allocates well under its own
// statevector (512 KiB on the Z2 engine, 1 MiB on the full one). The
// minimum over several leaves is taken, because a garbage collection
// may empty the pools between two leaves.
func TestSecondLeafAllocatesNoStatevector(t *testing.T) {
	const limit = 64 << 10
	s := QAOASolver{Opts: qaoa.Options{Layers: 2, MaxIters: 20}}
	leaf := func(seed uint64) uint64 {
		g := graph.ErdosRenyi(16, 0.4, graph.Unweighted, rng.New(seed))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.SolveSub(g, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	leaf(1)
	least := uint64(1 << 62)
	for seed := uint64(2); seed < 18; seed++ {
		least = min(least, leaf(seed))
	}
	if least >= limit {
		t.Fatalf("a second 16-node leaf allocated %d B at least, want < %d B", least, limit)
	}
}

// TestConcurrentLeavesMatchSequential: 8 goroutines solve 20 leaves of
// 10, 12 and 14 nodes each through one QAOASolver, every goroutine in
// its own order, so pooled engines and level indices of every shape
// pass between concurrent leaves. Every cut must equal the sequential
// run's (run under -race).
func TestConcurrentLeavesMatchSequential(t *testing.T) {
	s := QAOASolver{Opts: qaoa.Options{Layers: 2, MaxIters: 20}}
	sizes := []int{10, 12, 14}
	const leaves, workers = 20, 8
	graphs := make([]*graph.Graph, leaves)
	want := make([]maxcut.Cut, leaves)
	for i := range graphs {
		graphs[i] = graph.ErdosRenyi(sizes[i%len(sizes)], 0.5, graph.Unweighted, rng.New(uint64(100+i)))
		cut, err := s.SolveSub(graphs[i], rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cut
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < leaves; j++ {
				i := (j + 3*w) % leaves
				cut, err := s.SolveSub(graphs[i], rng.New(uint64(i)))
				if err == nil && (cut.Value != want[i].Value || !slices.Equal(cut.Spins, want[i].Spins)) {
					err = fmt.Errorf("worker %d, leaf %d (%d nodes): cut %v, sequential %v", w, i, graphs[i].N(), cut.Value, want[i].Value)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
