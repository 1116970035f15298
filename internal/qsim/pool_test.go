package qsim

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWorkerPoolCoversRange: every index in [0, total) is visited
// exactly once, chunk indices stay below the worker count, and the
// caller-owned WaitGroup is reusable across calls.
func TestWorkerPoolCoversRange(t *testing.T) {
	p := newWorkerPool(4)
	if p == nil {
		t.Fatal("newWorkerPool(4) returned nil")
	}
	defer p.Stop()
	var wg sync.WaitGroup
	for _, total := range []int{1, 3, 4, 17, 1000} {
		visits := make([]int32, total)
		p.run(total, func(w, start, end int) {
			if w < 0 || w >= 4 {
				t.Errorf("chunk index %d out of range", w)
			}
			for i := start; i < end; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		}, &wg)
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("total=%d: index %d visited %d times", total, i, v)
			}
		}
	}
}

// TestWorkerPoolConcurrentCallers: multiple goroutines dispatching to
// one pool at once (the QAOA² parallel sub-solve pattern) must not
// interleave their chunk accounting — this is the -race coverage for
// the shared task channel.
func TestWorkerPoolConcurrentCallers(t *testing.T) {
	p := newWorkerPool(3)
	defer p.Stop()
	const callers, total = 5, 2048
	var outer sync.WaitGroup
	sums := make([]int64, callers)
	for c := 0; c < callers; c++ {
		outer.Add(1)
		go func(c int) {
			defer outer.Done()
			var wg sync.WaitGroup
			var sum int64
			for iter := 0; iter < 20; iter++ {
				p.run(total, func(_, start, end int) {
					var local int64
					for i := start; i < end; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&sum, local)
				}, &wg)
			}
			sums[c] = sum
		}(c)
	}
	outer.Wait()
	want := int64(20) * total * (total - 1) / 2
	for c, got := range sums {
		if got != want {
			t.Fatalf("caller %d: sum %d, want %d", c, got, want)
		}
	}
}

// inlinePool is a one-worker pool: run executes every chunk on the
// caller, so a state given it is the inline twin of a pooled one.
func inlinePool() *workerPool { return &workerPool{workers: 1} }

func TestWorkerPoolSingleWorkerIsNil(t *testing.T) {
	if p := newWorkerPool(1); p != nil {
		t.Fatal("single-worker pool should be the inline sentinel nil")
	}
}

// goid extracts the current goroutine's id from its stack header — a
// test-only trick to observe scheduling, never used by library code.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	// Header: "goroutine 123 [".
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// TestWorkerPoolSliceAffinity pins the slice-affine dispatch contract:
// across repeated equal-geometry runs, chunk w always lands on the same
// goroutine (worker w's, or the caller's for the final chunk).
func TestWorkerPoolSliceAffinity(t *testing.T) {
	p := newWorkerPool(4)
	defer p.Stop()
	const total, rounds = 64, 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	owner := map[int]uint64{} // chunk index -> goroutine id of first round
	for round := 0; round < rounds; round++ {
		p.run(total, func(w, start, end int) {
			id := goid()
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := owner[w]; !ok {
				owner[w] = id
			} else if prev != id {
				t.Errorf("round %d: chunk %d migrated from goroutine %d to %d", round, w, prev, id)
			}
		}, &wg)
	}
	if len(owner) != 4 {
		t.Fatalf("saw %d distinct chunks, want 4", len(owner))
	}
	seen := map[uint64]bool{}
	for _, id := range owner {
		seen[id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 chunks ran on %d distinct goroutines, want 4", len(seen))
	}
}
