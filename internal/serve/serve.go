// Package serve turns the QAOA² library into a long-running,
// multi-tenant solve service: a bounded job queue with priority lanes
// and admission control layered on the task-graph runtime's worker
// budgets, a graph-fingerprint result cache that coalesces duplicate
// submissions onto one solve, NDJSON streaming of runtime progress
// events, and graceful drain with checkpoint handoff so in-flight
// jobs resume bit-identically after a restart. cmd/qaoa2d is the
// daemon front end; Client is the Go API cmd/workflow submits through.
//
// Scheduling model: every job runs the asynchronous task-graph runtime
// (internal/runtime) with a per-job worker budget. The server admits a
// waiting job only while the sum of running budgets stays within
// Config.GlobalParallelism — the service-level counterpart of the
// finite device pool of the paper's Fig. 2. High-priority jobs are
// admitted first; within a lane the queue is strict FIFO with slot
// reservation: freed slots accumulate for the head job until its
// budget fits, so a wide or high-priority job can never be starved by
// a stream of narrow ones.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"qaoa2/internal/graph"
	q2 "qaoa2/internal/qaoa2"
	rt "qaoa2/internal/runtime"
)

// Config configures a Server.
type Config struct {
	// GlobalParallelism caps the summed runtime worker budgets of
	// concurrently running jobs (default GOMAXPROCS).
	GlobalParallelism int
	// MaxJobParallelism clamps one job's budget (default
	// GlobalParallelism). Requests that omit Parallelism get the full
	// clamp.
	MaxJobParallelism int
	// QueueLimit bounds waiting (admitted but not yet running) jobs;
	// submissions beyond it fail with ErrQueueFull (default 64).
	QueueLimit int
	// RetainJobs bounds terminal (done/failed) jobs kept as cache
	// entries; the oldest-settled are evicted — and their checkpoint
	// files removed — beyond it (default 512). This also bounds the
	// persisted job table a long-running daemon rewrites.
	RetainJobs int
	// StateDir, when set, holds one runtime checkpoint per job plus
	// the persisted job table, so a drained or killed server resumes
	// its queue — and completed results survive restarts as cache
	// hits. Empty keeps everything in memory.
	StateDir string
	// DrainGrace is the expected drain-plus-restart turnaround; the
	// Retry-After hint of 503 (draining) rejections counts down its
	// remainder so clients come back when the restarted daemon should
	// be up (default 5s; cmd/qaoa2d passes its -drain-grace).
	DrainGrace time.Duration
	// Resolve maps a request to concrete solvers (default
	// ResolveSolvers; tests inject instrumented solvers). Every job runs
	// the solvers it returns, and the job's checkpoint header carries
	// their solver.ConfigTag: registry solvers print the same tag in
	// every process, so a daemon restarted on the same StateDir resumes
	// its parked jobs. A solver whose printed state differs between
	// processes errs toward re-solving rather than resuming wrongly.
	Resolve func(SolveRequest) (Solvers, error)
}

func (c Config) withDefaults() Config {
	if c.GlobalParallelism <= 0 {
		c.GlobalParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobParallelism <= 0 || c.MaxJobParallelism > c.GlobalParallelism {
		c.MaxJobParallelism = c.GlobalParallelism
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 512
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.Resolve == nil {
		c.Resolve = ResolveSolvers
	}
	return c
}

// Submission errors the HTTP layer maps to 429/503.
var (
	// ErrQueueFull rejects a submission when the wait queue is at
	// Config.QueueLimit.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions after Drain started.
	ErrDraining = errors.New("serve: server draining")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("serve: no such job")
)

// JobState is the lifecycle state of a job.
type JobState string

const (
	// JobQueued jobs wait for a worker-slot grant (also the parked
	// state of a drained in-flight job awaiting restart).
	JobQueued JobState = "queued"
	// JobRunning jobs hold worker slots and are solving.
	JobRunning JobState = "running"
	// JobDone jobs completed; Result is set and cached.
	JobDone JobState = "done"
	// JobFailed jobs errored; a resubmission retries them.
	JobFailed JobState = "failed"
)

// JobResult is the completed solve in wire form. Spins uses the
// checkpoint store's +/- encoding, so bit-identity across runs is a
// string comparison.
type JobResult struct {
	Spins     string         `json:"spins"`
	Value     float64        `json:"value"`
	Levels    int            `json:"levels"`
	SubGraphs int            `json:"subGraphs"`
	IntraCut  float64        `json:"intraCut"`
	CrossCut  float64        `json:"crossCut"`
	Reports   []rt.SubReport `json:"reports,omitempty"`
	// Problem is the problem-level decode of an Ising/QUBO submission
	// (nil for plain MaxCut jobs): the job's Spins/Value describe the
	// reduced MaxCut instance; this carries the answer in the
	// problem's own variables.
	Problem *ProblemReport `json:"problem,omitempty"`
}

// JobStatus is the externally visible job snapshot (submit responses,
// GET /v1/jobs/{id}, and the terminal NDJSON stream line).
type JobStatus struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	Priority    string   `json:"priority"`
	Parallelism int      `json:"parallelism"`
	// Cached marks a submission answered from the completed-result
	// cache; Coalesced marks one attached to an in-flight duplicate.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Events counts progress events so far; Restores counts solve
	// tasks served from the job's checkpoint (resumed work).
	Events   int        `json:"events"`
	Restores int        `json:"restores"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
}

// job is the internal record behind a JobStatus.
type job struct {
	id  string
	req SolveRequest // normalized
	// g is the built graph runJob solves; a settled job drops it
	// (stampLocked).
	g *graph.Graph
	// fp is the graph fingerprint behind id; kept so a key match can
	// be verified against the actual request (the id is a 64-bit
	// digest of user-controlled input — a collision must error, never
	// serve another tenant's result).
	fp string
	// doneSeq orders terminal jobs for cache eviction; prev and next
	// link them in that order (Server.settled).
	doneSeq    int
	prev, next *job

	state       JobState
	parallelism int
	result      *JobResult
	err         error
	events      []Event
	restores    int
	// order is the persisted lane position restored jobs re-queue by.
	order int

	// wake is closed and replaced on every event append and state
	// change; stream subscribers wait on it. done closes exactly once,
	// when the job reaches a terminal state (done/failed). subs counts
	// attached stream subscribers: eviction skips a job mid-stream so
	// every open stream can still deliver its terminal status line.
	wake chan struct{}
	done chan struct{}
	subs int
}

func (j *job) terminal() bool { return j.state == JobDone || j.state == JobFailed }

// tombstone is the terminal snapshot a retention-evicted job leaves
// behind. seq orders tombstones so the oldest is dropped first when
// the tombstone table itself hits the retention bound; at is its slot
// in that order (Server.graves).
type tombstone struct {
	status JobStatus
	seq    int
	at     int
}

// jobList links the terminal jobs oldest-settled first, through their
// prev and next fields, and counts them.
type jobList struct {
	head, tail *job
	n          int
}

// push appends a job that just settled.
func (l *jobList) push(j *job) {
	j.prev, j.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = j
	} else {
		l.head = j
	}
	l.tail = j
	l.n++
}

// remove unlinks a listed job.
func (l *jobList) remove(j *job) {
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		l.head = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		l.tail = j.prev
	}
	j.prev, j.next = nil, nil
	l.n--
}

// graveHeap orders tombstones by seq, oldest on top (container/heap).
type graveHeap []*tombstone

func (h graveHeap) Len() int           { return len(h) }
func (h graveHeap) Less(a, b int) bool { return h[a].seq < h[b].seq }
func (h graveHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].at, h[b].at = a, b
}
func (h *graveHeap) Push(x any) {
	t := x.(*tombstone)
	t.at = len(*h)
	*h = append(*h, t)
}
func (h *graveHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return t
}

// Server is the long-running solve service.
type Server struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // scheduler + Drain wakeups
	jobs     map[string]*job
	lanes    [2][]*job // waiting jobs: 0 = high, 1 = normal
	used     int       // worker slots held by running jobs
	running  int       // running job count
	draining bool
	closed   bool
	drainCh  chan struct{} // closed on Drain; wired to runtime Interrupt
	wg       sync.WaitGroup
	// doneCount stamps job.doneSeq so eviction drops oldest-settled
	// first; settled lists the terminal jobs in that order.
	doneCount int
	settled   jobList
	// drainStart stamps the moment Drain began; the 503 Retry-After
	// hint counts down the configured grace from it.
	drainStart time.Time
	// avgRunNanos is an EWMA of completed-job wall times; the 429
	// Retry-After hint extrapolates queue-drain time from it.
	avgRunNanos int64
	// evicted holds terminal-status tombstones of retention-evicted
	// jobs (bounded by RetainJobs, oldest dropped): a stream subscriber
	// whose connection was cut just before the status line can still
	// reconnect and receive the job's final status even if the settled
	// job was evicted in the gap, and cache peeks keep answering.
	// graves holds the same tombstones, oldest first.
	evicted map[string]*tombstone
	graves  graveHeap

	// persistKick marks the job table dirty for the persister
	// goroutine (buffered 1: bursts coalesce); persistStop ends it.
	// persistSeq (under mu) stamps snapshots; persistMu serializes
	// writes and guards persistWritten/lastPersistErr so a stale
	// snapshot can never overwrite a newer one on disk.
	persistKick    chan struct{}
	persistStop    chan struct{}
	persistSeq     uint64
	persistMu      sync.Mutex
	persistWritten uint64
	lastPersistErr error
}

// New creates a Server, restores persisted jobs from Config.StateDir
// (completed results become cache entries, interrupted jobs re-queue
// and resume from their checkpoints), and starts the scheduler.
func New(cfg Config) (*Server, error) {
	s := newServer(cfg)
	if err := s.restore(); err != nil {
		return nil, err
	}
	if s.cfg.StateDir != "" {
		s.wg.Add(1)
		go s.persister()
	}
	s.wg.Add(1)
	go s.scheduler()
	return s, nil
}

// newServer makes an empty Server with no goroutine running.
func newServer(cfg Config) *Server {
	s := &Server{
		cfg:         cfg.withDefaults(),
		jobs:        make(map[string]*job),
		evicted:     make(map[string]*tombstone),
		drainCh:     make(chan struct{}),
		persistKick: make(chan struct{}, 1),
		persistStop: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// laneOf maps a priority to its queue lane.
func laneOf(priority string) int {
	if priority == PriorityHigh {
		return 0
	}
	return 1
}

// Submit admits one solve request. Duplicate submissions (equal
// result-determining fields) coalesce: a completed duplicate answers
// from the cache, an in-flight one attaches to the running/queued job.
// A failed duplicate is retried as a fresh attempt.
func (s *Server) Submit(req SolveRequest) (JobStatus, error) {
	req, err := req.normalize()
	if err != nil {
		return JobStatus{}, err
	}
	g, err := req.Graph.Build()
	if err != nil {
		return JobStatus{}, err
	}
	if _, err := s.cfg.Resolve(req); err != nil {
		return JobStatus{}, err
	}
	fp := rt.GraphFingerprint(g)
	id := req.key(fp)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return JobStatus{}, ErrDraining
	}
	if j, ok := s.jobs[id]; ok {
		if !sameSolve(j, fp, req) {
			// A 64-bit digest collision between distinct solves: error
			// out rather than hand one tenant another tenant's result.
			return JobStatus{}, fmt.Errorf("serve: job key collision on %s: submission does not match the stored request (vary the seed to re-key)", id)
		}
		switch j.state {
		case JobDone:
			st := s.statusLocked(j)
			st.Cached = true
			return st, nil
		case JobQueued, JobRunning:
			st := s.statusLocked(j)
			st.Coalesced = true
			return st, nil
		case JobFailed:
			// Retry: reset the record — adopting the new submission's
			// scheduling fields (priority, parallelism) — and enqueue.
			// The event log is kept so the retry's events continue the
			// sequence: attached subscribers never observe a seq reset
			// or a spliced stream.
			if s.waiting() >= s.cfg.QueueLimit {
				return JobStatus{}, ErrQueueFull
			}
			s.settled.remove(j)
			j.req = req
			j.g = g
			j.parallelism = s.clampParallelism(req.Parallelism)
			j.state = JobQueued
			j.err = nil
			j.result = nil
			j.done = make(chan struct{})
			s.enqueueLocked(j)
			return s.statusLocked(j), nil
		}
	}
	if s.waiting() >= s.cfg.QueueLimit {
		return JobStatus{}, ErrQueueFull
	}
	j := &job{
		id:          id,
		req:         req,
		g:           g,
		fp:          fp,
		state:       JobQueued,
		parallelism: s.clampParallelism(req.Parallelism),
		wake:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	// A fresh job supersedes any tombstone left by an evicted
	// predecessor with the same identity.
	s.forgetLocked(id)
	s.jobs[id] = j
	s.enqueueLocked(j)
	return s.statusLocked(j), nil
}

// sameSolve reports whether a submission describes the stored job's
// solve: equal graph fingerprint and equal result-determining fields.
func sameSolve(j *job, fp string, req SolveRequest) bool {
	return j.fp == fp &&
		j.req.MaxQubits == req.MaxQubits &&
		j.req.Solver == req.Solver &&
		j.req.Merge == req.Merge &&
		j.req.Layers == req.Layers &&
		j.req.Seed == req.Seed &&
		problemKey(j.req) == problemKey(req)
}

// clampParallelism applies the per-job budget clamp.
func (s *Server) clampParallelism(want int) int {
	if want <= 0 || want > s.cfg.MaxJobParallelism {
		return s.cfg.MaxJobParallelism
	}
	return want
}

// waiting counts queued jobs across lanes. Caller holds mu.
func (s *Server) waiting() int { return len(s.lanes[0]) + len(s.lanes[1]) }

// enqueueLocked appends a queued job to its lane, persists, and kicks
// the scheduler. Caller holds mu.
func (s *Server) enqueueLocked(j *job) {
	lane := laneOf(j.req.Priority)
	s.lanes[lane] = append(s.lanes[lane], j)
	s.persistLocked()
	s.cond.Broadcast()
}

// Job returns the status snapshot of one job. A retention-evicted
// job still answers with its terminal tombstone status.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		if t, ok := s.evicted[id]; ok {
			return t.status, nil
		}
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(j), nil
}

// CachePeek reports a completed job's status without admitting,
// coalescing, or re-running anything — the fleet front door asks
// workers this before routing a fresh submission, so a result cached
// anywhere in the fleet is served without a solve. Evicted jobs
// answer from their tombstones.
func (s *Server) CachePeek(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.state == JobDone {
		st := s.statusLocked(j)
		st.Cached = true
		return st, true
	}
	if t, ok := s.evicted[id]; ok && t.status.State == JobDone {
		st := t.status
		st.Cached = true
		return st, true
	}
	return JobStatus{}, false
}

// Jobs lists every known job (queued, running, done, failed).
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// statusLocked snapshots a job. Caller holds mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Priority:    j.req.Priority,
		Parallelism: j.parallelism,
		Events:      len(j.events),
		Restores:    j.restores,
		Result:      j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Draining reports whether Drain has started (health endpoints and
// tests sequencing drains use this).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the service: no further submission is
// admitted, no queued job starts, and every running job is
// interrupted through the runtime's Interrupt channel — its completed
// sub-solves are already in the job's checkpoint, so the job parks as
// queued and a Server restarted on the same StateDir resumes it
// bit-identically. Drain blocks until all running jobs have parked
// and the state is persisted. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.drainStart = time.Now()
		close(s.drainCh)
		s.cond.Broadcast()
		// Jobs that will never start this generation are settled the
		// moment draining begins: wake their stream subscribers so
		// they receive the parked status line instead of hanging.
		// (Running jobs wake their subscribers when they park.)
		for _, j := range s.jobs {
			if j.state != JobRunning {
				s.bumpLocked(j)
			}
		}
	}
	for s.running > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	// Synchronous write: the drained state must be durable before the
	// caller proceeds to exit/restart — this is the checkpoint
	// handoff.
	if s.cfg.StateDir != "" {
		s.persistNow()
	}
}

// Close drains and stops the scheduler and persister. The Server is
// unusable after.
func (s *Server) Close() {
	s.Drain()
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.persistStop)
	}
	s.wg.Wait()
}

// scheduler grants worker slots to waiting jobs: high lane before
// normal lane, strict FIFO within a lane, with slot reservation — when
// the head job's budget exceeds the free slots, freed slots accumulate
// for it instead of backfilling narrower jobs behind it. Head-of-line
// blocking is the price; the payoff is that a wide (or high-priority)
// job can never be starved by a stream of narrow ones.
func (s *Server) scheduler() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && !s.draining && !s.startableLocked() {
			s.cond.Wait()
		}
		if s.closed || s.draining {
			return
		}
		j := s.takeLocked()
		j.state = JobRunning
		s.used += j.parallelism
		s.running++
		s.bumpLocked(j)
		s.persistLocked()
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// headLocked returns the job the slot reservation applies to: the
// head of the high lane, else the head of the normal lane. Caller
// holds mu.
func (s *Server) headLocked() *job {
	for lane := range s.lanes {
		if len(s.lanes[lane]) > 0 {
			return s.lanes[lane][0]
		}
	}
	return nil
}

// startableLocked reports whether the reserved head job fits the free
// slots. Caller holds mu.
func (s *Server) startableLocked() bool {
	j := s.headLocked()
	return j != nil && j.parallelism <= s.cfg.GlobalParallelism-s.used
}

// takeLocked removes and returns the reserved head job. Caller holds
// mu and has checked startableLocked.
func (s *Server) takeLocked() *job {
	for lane := range s.lanes {
		if len(s.lanes[lane]) > 0 {
			j := s.lanes[lane][0]
			s.lanes[lane] = s.lanes[lane][1:]
			return j
		}
	}
	panic("serve: takeLocked without startable job")
}

// checkpointPath returns the job's on-disk checkpoint ("" without a
// StateDir: no resume, but solves still run).
func (s *Server) checkpointPath(j *job) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, j.id+".ckpt")
}

// CheckpointData returns the raw serialized checkpoint of a known
// job — the fleet coordinator fetches this from a draining worker to
// hand the job's completed sub-solves to its replacement, so the
// re-routed job resumes instead of recomputing. ErrNotFound when the
// job is unknown, the server keeps no state dir, or no checkpoint has
// been written yet.
func (s *Server) CheckpointData(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var path string
	if ok {
		path = s.checkpointPath(j)
	}
	s.mu.Unlock()
	if !ok || path == "" {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, ErrNotFound
	}
	return data, nil
}

// ImportCheckpoint seeds the on-disk checkpoint a future (or queued)
// job with this id will resume from — the receiving half of the
// fleet's re-park hand-off. The import is best-effort by design: the
// runtime re-validates the header on open and falls back to a full
// recompute on any mismatch, so a stale or foreign checkpoint can
// cost time but never correctness. Rejected while the job is already
// running (its checkpoint file is live), when the server keeps no
// state, or when id is not a job key: the id names a file in the state
// dir, so it is checked before anything touches the filesystem.
func (s *Server) ImportCheckpoint(id string, data []byte) error {
	if !isJobKey(id) {
		return fmt.Errorf("serve: import checkpoint: job id %q is not 16 lowercase hex characters", id)
	}
	if s.cfg.StateDir == "" {
		return fmt.Errorf("serve: no state dir to import a checkpoint into")
	}
	h, err := rt.SniffHeader(data)
	if err != nil {
		return fmt.Errorf("serve: import checkpoint %s: %w", id, err)
	}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		if j.state == JobRunning {
			s.mu.Unlock()
			return fmt.Errorf("serve: job %s is running; checkpoint import refused", id)
		}
		// The job is known: its graph fingerprint and seed must agree
		// with the donated checkpoint's header, or the donor is handing
		// us a different solve's state.
		if h.Graph != j.fp || h.Seed != j.req.Seed {
			s.mu.Unlock()
			return fmt.Errorf("serve: checkpoint header does not match job %s", id)
		}
	}
	path := filepath.Join(s.cfg.StateDir, id+".ckpt")
	s.mu.Unlock()
	if err := replaceFile(path, path+".import", data); err != nil {
		return fmt.Errorf("serve: import checkpoint: %w", err)
	}
	return nil
}

// isJobKey reports whether id has the form of a job key, the 16
// lowercase hex characters rt.Header.Fingerprint produces.
func isJobKey(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range []byte(id) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// runJob executes one job through the task-graph runtime and settles
// its terminal (or parked) state.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	start := time.Now()
	solvers, err := s.cfg.Resolve(j.req)
	var res *q2.Result
	if err == nil {
		res, err = q2.Solve(j.g, q2.Options{
			MaxQubits:      j.req.MaxQubits,
			Solver:         solvers.Sub,
			MergeSolver:    solvers.Merge,
			Parallelism:    j.parallelism,
			Seed:           j.req.Seed,
			CheckpointPath: s.checkpointPath(j),
			OnRuntimeEvent: func(ev rt.Event) { s.appendEvent(j, ev) },
			Interrupt:      s.drainCh,
		})
	}

	s.mu.Lock()
	s.used -= j.parallelism
	s.running--
	switch {
	case errors.Is(err, rt.ErrInterrupted):
		// Drained mid-solve: completed sub-solves are in the
		// checkpoint; park the job at the FRONT of its lane — it was
		// admitted before everything still waiting, so the persisted
		// order resumes it first in the next server generation.
		j.state = JobQueued
		lane := laneOf(j.req.Priority)
		s.lanes[lane] = append([]*job{j}, s.lanes[lane]...)
	case err != nil:
		j.state = JobFailed
		j.err = err
		s.observeRunLocked(time.Since(start))
		s.settleLocked(j)
	default:
		j.state = JobDone
		j.result = resultOf(j.req, res)
		s.observeRunLocked(time.Since(start))
		s.settleLocked(j)
	}
	s.bumpLocked(j)
	s.persistLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// settleLocked stamps a terminal job, closes its done channel, and
// evicts the oldest terminal jobs beyond the retention bound (their
// checkpoint files go with them — the result lives in the job table).
// Caller holds mu.
func (s *Server) settleLocked(j *job) {
	s.stampLocked(j)
	s.evictLocked()
}

// stampLocked gives a job that just reached a terminal state the next
// doneSeq, appends it to settled and closes its done channel. It drops
// the job's built graph and the request's graph: only runJob reads
// them, and the job table keys a settled record by its fingerprint
// (persistedJob.Fingerprint). Caller holds mu.
func (s *Server) stampLocked(j *job) {
	j.g = nil
	j.req.Graph = GraphSpec{}
	s.doneCount++
	j.doneSeq = s.doneCount
	s.settled.push(j)
	close(j.done)
}

// evictLocked enforces Config.RetainJobs over terminal jobs: it evicts
// the oldest-settled first, walking settled from its head. Jobs with
// attached stream subscribers are spared until those streams close
// (the bound overshoots transiently by at most the subscriber count).
// Caller holds mu.
func (s *Server) evictLocked() {
	excess := s.settled.n - s.cfg.RetainJobs
	for j := s.settled.head; j != nil && excess > 0; {
		next := j.next
		if j.subs == 0 {
			// Leave a terminal-status tombstone: a subscriber whose stream
			// was cut right before the status line can reconnect after this
			// eviction and still receive the final status (events are gone —
			// only the heavy part of the record is reclaimed).
			s.settled.remove(j)
			t := &tombstone{status: s.statusLocked(j), seq: j.doneSeq}
			s.evicted[j.id] = t
			heap.Push(&s.graves, t)
			delete(s.jobs, j.id)
			if path := s.checkpointPath(j); path != "" {
				os.Remove(path)
			}
			excess--
		}
		j = next
	}
	for len(s.evicted) > s.cfg.RetainJobs {
		t := heap.Pop(&s.graves).(*tombstone)
		delete(s.evicted, t.status.ID)
	}
}

// forgetLocked drops id's tombstone, if it has one. Caller holds mu.
func (s *Server) forgetLocked(id string) {
	if t, ok := s.evicted[id]; ok {
		heap.Remove(&s.graves, t.at)
		delete(s.evicted, id)
	}
}

// observeRunLocked folds one completed job's wall time into the
// average the 429 Retry-After hint extrapolates from. Caller holds mu.
func (s *Server) observeRunLocked(d time.Duration) {
	if s.avgRunNanos == 0 {
		s.avgRunNanos = d.Nanoseconds()
		return
	}
	s.avgRunNanos = (3*s.avgRunNanos + d.Nanoseconds()) / 4
}

// maxRetryAfterSeconds caps the back-pressure hint so a pathological
// estimate never parks clients for minutes.
const maxRetryAfterSeconds = 60

// retryAfterHint derives the Retry-After value (whole seconds) of a
// 429/503 rejection from the server's actual state instead of a
// constant: a draining server counts down its drain grace (come back
// when the restarted daemon should be up), and a full queue
// extrapolates from the queue depth and the observed average job
// runtime (come back when the backlog should have drained). Returns 0
// for errors that carry no back-pressure hint.
func (s *Server) retryAfterHint(err error) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, ErrDraining):
		return hintSeconds(s.cfg.DrainGrace - time.Since(s.drainStart))
	case errors.Is(err, ErrQueueFull):
		avg := time.Duration(s.avgRunNanos)
		if avg <= 0 {
			avg = time.Second // no completion observed yet
		}
		// The whole waiting backlog must start before a queue slot is
		// reliably free again; GlobalParallelism jobs drain concurrently
		// in the best (all budget-1) case.
		return hintSeconds(time.Duration(s.waiting()) * avg / time.Duration(s.cfg.GlobalParallelism))
	}
	return 0
}

// hintSeconds rounds a wait up to whole seconds, clamped into
// [1, maxRetryAfterSeconds].
func hintSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// Follow hands job id's events to onEvent (nil is allowed) in order —
// the recorded prefix replays first, live events follow — and returns
// the job's status once it settles: terminal, or parked by a drain.
// Every subscriber, whenever it attaches, observes the identical event
// sequence. The job is pinned against retention eviction while
// followed; an evicted job settles at once from its tombstone.
func (s *Server) Follow(ctx context.Context, id string, onEvent func(Event)) (JobStatus, error) {
	ok, pinned := s.addStreamRef(id)
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	// Only live jobs take an eviction pin; a stream admitted via a
	// tombstone must not decrement a fresh same-id job's pin count.
	if pinned {
		defer s.releaseStreamRef(id)
	}
	for next := 0; ; {
		evs, wake, status, settled, err := s.eventsFrom(id, next)
		if err != nil {
			return JobStatus{}, err
		}
		if onEvent != nil {
			for _, ev := range evs {
				onEvent(ev)
			}
		}
		next += len(evs)
		if settled {
			return status, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
	}
}

// addStreamRef pins a job against eviction while a stream is
// attached; ok reports whether the job exists and pinned whether a
// pin was actually taken. A tombstoned job admits the stream without
// a pin: there is nothing left to evict, and the stream settles
// immediately from the tombstone status.
func (s *Server) addStreamRef(id string) (ok, pinned bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, live := s.jobs[id]
	if !live {
		_, evicted := s.evicted[id]
		return evicted, false
	}
	j.subs++
	return true, true
}

// releaseStreamRef unpins a job when its stream closes.
func (s *Server) releaseStreamRef(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.subs--
		s.evictLocked()
	}
}

// resultOf converts a runtime result to wire form, decoding problem
// submissions back to their own variables.
func resultOf(req SolveRequest, res *q2.Result) *JobResult {
	out := &JobResult{
		Spins:     EncodeSpins(res.Cut.Spins),
		Value:     res.Cut.Value,
		Levels:    res.Levels,
		SubGraphs: res.SubGraphs,
		IntraCut:  res.IntraCut,
		CrossCut:  res.CrossCut,
		Reports:   res.SubReports,
	}
	if req.Problem != nil {
		out.Problem = problemReportOf(req.Problem, res.Cut.Spins)
	}
	return out
}

// EncodeSpins renders a cut assignment in the +/- wire encoding — the
// checkpoint store's codec, delegated so the service wire format and
// the drain/resume format can never diverge.
func EncodeSpins(spins []int8) string { return rt.EncodeSpins(spins) }

// DecodeSpins parses the +/- wire encoding back into a spin vector.
func DecodeSpins(s string) ([]int8, error) {
	spins, ok := rt.DecodeSpins(s)
	if !ok {
		return nil, fmt.Errorf("serve: malformed spin string %q", s)
	}
	return spins, nil
}

// appendEvent records one runtime event and wakes stream subscribers.
func (s *Server) appendEvent(j *job, ev rt.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.events = append(j.events, Event{Seq: len(j.events) + 1, Event: ev})
	if ev.Restored {
		j.restores++
	}
	s.bumpLocked(j)
}

// bumpLocked wakes everything waiting on the job's wake channel.
// Caller holds mu.
func (s *Server) bumpLocked(j *job) {
	close(j.wake)
	j.wake = make(chan struct{})
}

// eventsFrom snapshots a job's events starting at 0-based index from,
// together with the channel that signals further progress and whether
// the job is settled (terminal, or parked by a drain) — once settled
// with no new events, a stream should emit its status line and end.
func (s *Server) eventsFrom(id string, from int) (evs []Event, wake <-chan struct{}, status JobStatus, settled bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		if t, ok := s.evicted[id]; ok {
			// The job settled and was retention-evicted — typically in
			// the gap between a subscriber's stream cut and its
			// reconnect. The event log is gone, but the terminal status
			// still settles the stream instead of stranding it on a 404.
			return nil, nil, t.status, true, nil
		}
		return nil, nil, JobStatus{}, false, ErrNotFound
	}
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	settled = j.terminal() || (s.draining && j.state != JobRunning)
	return evs, j.wake, s.statusLocked(j), settled, nil
}

// Done exposes the job's terminal-completion channel (closed when the
// job reaches done/failed; a drained parked job keeps it open).
func (s *Server) Done(id string) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.done, nil
}

// String summarizes the server for logs.
func (s *Server) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("serve.Server{jobs: %d, waiting: %d, running: %d, slots: %d/%d}",
		len(s.jobs), s.waiting(), s.running, s.used, s.cfg.GlobalParallelism)
}
