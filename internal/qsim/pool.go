package qsim

import (
	"runtime"
	"sync"
)

// The worker pool is the scheduling half of the fused execution engine
// (engine.go): gate kernels are memory-bandwidth-bound sweeps whose
// per-call cost is a few hundred microseconds at most, so spawning a
// fresh goroutine fan-out per kernel call makes the optimizer inner
// loop scheduler-bound. Instead a fixed set of workers is started once
// per process and kernel calls submit chunk descriptors to them; a
// chunk descriptor is a plain struct, so a dispatch allocates nothing
// and costs two channel operations per worker.
//
// Lifecycle: the shared pool starts lazily on the first parallel kernel
// call (honoring GOMAXPROCS at that moment) and lives for the process —
// idle workers block on the task channel and cost nothing. Tests can
// create private pools (newWorkerPool) and Stop them.

// poolTask is one chunk of a parallel kernel sweep: body(w, start, end)
// where w is the chunk index (used by the engine's high sweep to pick
// its worker's scratch buffer).
type poolTask struct {
	body       func(w, start, end int)
	w          int
	start, end int
	wg         *sync.WaitGroup
}

// workerPool is a persistent set of kernel workers with SLICE-AFFINE
// dispatch: worker w has a private queue and chunk w of every run is
// sent to it, so the deterministic chunking below maps the same tile
// range to the same worker goroutine sweep after sweep. Kernel sweeps
// revisit the same amplitude ranges dozens of times per optimization
// step; a shared queue hands tiles to whichever worker dequeues first,
// migrating each tile's cache (and, on multi-socket machines, NUMA)
// footprint between cores on every sweep. Affinity keeps a tile's
// working set warm in one core's private cache.
type workerPool struct {
	workers int
	tasks   []chan poolTask // tasks[w]: worker w's private queue
}

// newWorkerPool starts a pool with the given number of workers. Fewer
// than two workers cannot outrun the caller's own goroutine, so the
// constructor returns nil (the "run inline" sentinel) in that case.
func newWorkerPool(workers int) *workerPool {
	if workers < 2 {
		return nil
	}
	p := &workerPool{workers: workers, tasks: make([]chan poolTask, workers)}
	for i := range p.tasks {
		// Small buffer: concurrent callers (the engines of concurrent
		// sub-solves) enqueue at most one chunk each per worker per run;
		// a full queue back-pressures the dispatching caller, never a
		// worker.
		p.tasks[i] = make(chan poolTask, 4)
		go p.work(i)
	}
	return p
}

func (p *workerPool) work(w int) {
	for t := range p.tasks[w] {
		t.body(t.w, t.start, t.end)
		t.wg.Done()
	}
}

// Stop terminates the workers. Only pools created by newWorkerPool
// callers (tests, benchmarks) need stopping; the shared pool lives for
// the process. Run must not be in flight.
func (p *workerPool) Stop() {
	for _, ch := range p.tasks {
		close(ch)
	}
}

// run splits [0, total) into at most p.workers chunks, executes the
// last chunk on the calling goroutine, and blocks until all chunks are
// done. Chunk w always runs on worker w (and the final chunk always on
// the caller), so equal-geometry sweeps get a stable worker→range
// mapping. wg is caller-owned so steady-state dispatch allocates
// nothing; it must be quiescent (counter zero) on entry. The chunk
// index passed to body is always < p.workers.
func (p *workerPool) run(total int, body func(w, start, end int), wg *sync.WaitGroup) {
	workers := p.workers
	if workers > total {
		workers = total
	}
	if workers < 2 {
		body(0, 0, total)
		return
	}
	chunk := (total + workers - 1) / workers
	chunks := (total + chunk - 1) / chunk
	wg.Add(chunks - 1)
	for w := 0; w < chunks-1; w++ {
		start := w * chunk
		p.tasks[w] <- poolTask{body: body, w: w, start: start, end: start + chunk, wg: wg}
	}
	body(chunks-1, (chunks-1)*chunk, total)
	wg.Wait()
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *workerPool
)

// defaultPool returns the process-wide kernel pool, starting it on
// first use (nil on single-CPU processes: every kernel runs inline).
func defaultPool() *workerPool {
	sharedPoolOnce.Do(func() {
		sharedPool = newWorkerPool(runtime.GOMAXPROCS(0))
	})
	return sharedPool
}

// kernelPool resolves the pool a kernel on s should dispatch to: nil
// means run inline (single-CPU processes).
func (s *State) kernelPool() *workerPool {
	if s.pool != nil {
		return s.pool
	}
	return defaultPool()
}

// sweep is the one front door to the kernel pool: it runs body(w,
// start, end) over the work items [0, items), each itemLen amplitudes
// long, split across the pool, or inline as body(0, 0, items) when the
// process has one CPU or the sweep covers fewer than parallelThreshold
// amplitudes. w names the chunk's worker, < the pool's worker count; a
// body uses it only to pick per-worker scratch, never to place a result,
// so what a sweep computes does not depend on the worker count. The
// state's WaitGroup carries the dispatch, so a sweep allocates nothing
// beyond what body captures. A sweep writes the amplitudes, so it
// drops the batch peaks: this is the one place they go stale, and
// Engine.Evaluate records them afresh after its last sweep.
func (s *State) sweep(items, itemLen int, body func(w, start, end int)) {
	s.peaks = nil
	p := s.kernelPool()
	if p == nil || items*itemLen < parallelThreshold {
		body(0, 0, items)
		return
	}
	p.run(items, body, &s.wg)
}
