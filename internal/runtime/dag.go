package runtime

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInterrupted is returned by Solve when Options.Interrupt fires
// before the task graph drains. Completed tasks are already in the
// checkpoint (when one is attached), so a subsequent run resumes.
var ErrInterrupted = errors.New("runtime: solve interrupted")

// taskKind classifies DAG nodes for events and stats.
type taskKind int

const (
	// kindPartition divides one stage's graph into qubit-sized parts.
	kindPartition taskKind = iota
	// kindSubSolve solves one induced sub-graph.
	kindSubSolve
	// kindMergeBuild stitches a stage's cuts into the signed contracted
	// graph and decides whether to solve it or unfold the next stage.
	kindMergeBuild
	// kindMergeSolve orients the merge nodes of the deepest stage.
	kindMergeSolve
	// kindStitch folds flips back down the stage chain into the final
	// global assignment.
	kindStitch
)

func (k taskKind) String() string {
	switch k {
	case kindPartition:
		return "partition"
	case kindSubSolve:
		return "sub-solve"
	case kindMergeBuild:
		return "merge-build"
	case kindMergeSolve:
		return "merge-solve"
	case kindStitch:
		return "stitch"
	default:
		return fmt.Sprintf("taskKind(%d)", int(k))
	}
}

// task is one node of the execution DAG. A task becomes runnable when
// every dependency has completed; its run function may add further
// tasks (the DAG unfolds dynamically: the number of sub-solves of a
// merge level is only known once the previous level's contraction is
// built).
type task struct {
	// run does the task's work. It is called with part, the sub-graph
	// a sub-solve task solves, so one function serves every sub-solve
	// of a stage, and with the pool worker running it.
	run  func(part, worker int) error
	part int

	// executor state, guarded by executor.mu.
	pending int // unmet dependencies
	done    bool
	// succ is the one task waiting on this one, if any: a sub-solve
	// feeds its stage's merge-build barrier and nothing else.
	succ *task
}

// executor runs a dynamic task DAG on a fixed pool of workers. The
// worker count is the admission control: at most that many tasks — in
// particular at most that many concurrent sub-graph solves — run at any
// instant, standing in for the finite pool of quantum devices and
// classical nodes of the paper's Fig. 2.
type executor struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*task // ready tasks, FIFO
	outstanding int     // added but not yet completed
	running     int     // currently executing
	err         error   // first failure; aborts scheduling
	interrupt   <-chan struct{}
}

func newExecutor(interrupt <-chan struct{}) *executor {
	e := &executor{interrupt: interrupt}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// start launches the worker pool. Call after the root task is added:
// a worker that finds an empty, drained graph exits immediately.
func (e *executor) start(workers int) {
	for w := 0; w < workers; w++ {
		go e.worker(w)
	}
}

// add registers a task whose dependencies are deps (already-completed
// dependencies are allowed), t becoming the one successor of each.
// Safe to call from inside a running task.
func (e *executor) add(t *task, deps []task) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.outstanding++
	for i := range deps {
		d := &deps[i]
		if d.done {
			continue
		}
		if d.succ != nil {
			panic("runtime: a task already has its successor")
		}
		t.pending++
		d.succ = t
	}
	if t.pending == 0 {
		e.queue = append(e.queue, t)
		// Broadcast, not Signal: the wait() caller shares this cond
		// with idle workers, so a single wakeup could land on it and
		// leave the task parked until a busy worker loops around.
		e.cond.Broadcast()
	}
}

// interrupted reports whether the interrupt channel has fired.
func (e *executor) interrupted() bool {
	if e.interrupt == nil {
		return false
	}
	select {
	case <-e.interrupt:
		return true
	default:
		return false
	}
}

// worker pulls ready tasks until the graph drains or aborts. Workers
// exit when no work can ever arrive again (drained or aborted with
// nothing running: a running task may still add successors).
func (e *executor) worker(id int) {
	e.mu.Lock()
	for {
		for len(e.queue) == 0 && e.err == nil && e.outstanding > 0 {
			e.cond.Wait()
		}
		if e.err != nil || e.outstanding == 0 {
			e.cond.Broadcast()
			e.mu.Unlock()
			return
		}
		t := e.queue[0]
		e.queue = e.queue[1:]
		if e.interrupted() {
			e.fail(ErrInterrupted)
			e.mu.Unlock()
			return
		}
		e.running++
		e.mu.Unlock()

		err := t.run(t.part, id)

		e.mu.Lock()
		e.running--
		if err != nil {
			e.fail(err)
		}
		t.done = true
		if s := t.succ; s != nil {
			s.pending--
			if s.pending == 0 {
				e.queue = append(e.queue, s)
				e.cond.Broadcast()
			}
		}
		e.outstanding--
		if e.outstanding == 0 || e.err != nil {
			e.cond.Broadcast()
		}
	}
}

// fail records the first error and wakes everyone. Caller holds mu.
func (e *executor) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.cond.Broadcast()
}

// wait blocks until the DAG drains (nil) or aborts (first error). On
// abort it waits for in-flight tasks to finish so no task goroutine
// touches shared state after wait returns.
func (e *executor) wait() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.err != nil {
			for e.running > 0 {
				e.cond.Wait()
			}
			return e.err
		}
		if e.outstanding == 0 {
			return nil
		}
		e.cond.Wait()
	}
}
