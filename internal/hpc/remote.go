package hpc

import (
	"context"
	"fmt"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/retry"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// RemoteSolver offloads sub-graph solves to a running qaoa2d daemon:
// it is a drop-in solver.Solver, so the coordinator workflow (and plain
// qaoa2.Solve) can dispatch leaves to a remote solve service instead
// of the local simulator — the first step toward the multi-backend
// dispatch the service layer exists for.
//
// Determinism: the per-sub-graph seed is drawn from the solver's
// deterministic stream, and the daemon solves it with the named
// registry solvers — the same cut the equivalent local solver
// returns. Because each leaf's seed is distinct (it derives from the
// leaf's position in the computation tree) leaves do NOT deduplicate
// within one solve; RE-RUNNING a solve with the same root seed
// resubmits identical (graph, seed) pairs and hits the daemon's
// result cache leaf by leaf.
//
// Fault tolerance: the seed is drawn ONCE per leaf, before any
// network I/O, so every retried submission carries the identical
// (graph, seed) pair — the daemon's result cache and duplicate
// coalescing make resubmission idempotent, and a leaf that survives a
// retry (or degrades to the local Fallback) still produces the
// bit-identical cut. Transient failures (connection refused/reset,
// 5xx, 429, mid-stream drops, jobs parked by a daemon drain) retry
// under Retry with deterministic backoff; terminal rejections (4xx,
// unknown solver) fail immediately. Retry is the only retry loop on
// the hop: each attempt runs through a single-attempt copy of Client.
// Retry's AttemptTimeout bounds that copy's submission only; the event
// stream that follows is unbounded, so a healthy daemon may take as
// long as a leaf needs.
type RemoteSolver struct {
	// Client reaches the daemon.
	Client *serve.Client
	// Solver/Merge name the solvers the daemon resolves through the
	// shared registry (internal/solver) — any registered name,
	// including the composite "best" (default "anneal"/"anneal",
	// deterministic and cheap; set "qaoa" to spend remote quantum
	// simulation). The DAEMON's registry is the
	// authority: names are deliberately not pre-validated here, so a
	// daemon that registered extra solvers at startup accepts names
	// this process has never heard of; a genuine typo comes back as
	// the daemon's "unknown solver" rejection.
	Solver, Merge string
	// Layers forwards the QAOA ansatz depth for quantum-bearing
	// remote solvers (0 = daemon default).
	Layers int
	// MaxQubits is the remote device budget; 0 lets every sub-graph
	// solve directly (budget = sub-graph size). A smaller budget makes
	// the daemon divide-and-conquer the sub-graph again.
	MaxQubits int

	// Retry shapes the resubmission loop. The zero policy means
	// retry.Default seeded from the leaf seed — deterministic backoff
	// jitter per leaf. A single-attempt policy (MaxAttempts 1,
	// retry.Policy{MaxAttempts: 1}) restores the historical
	// fail-on-first-error behavior. Its AttemptTimeout bounds each
	// submission, not the streamed solve.
	Retry retry.Policy
	// Fallback, when set, solves the sub-graph locally after the
	// remote path is exhausted (retries spent or a terminal
	// rejection). The degradation is visible in the attribution
	// report: the winner becomes "fallback:<name>" and the failed
	// remote attempt stays in Attempts with its error. For
	// bit-identical degradation, use the local twin of the remote
	// solver (e.g. AnnealSolver for Solver "anneal"): it receives
	// rng.New(leafSeed), exactly the stream the daemon would have used.
	Fallback solver.Solver
}

// solvers resolves the remote solver names, each "anneal" when empty.
func (s RemoteSolver) solvers() (sub, merge string) {
	sub, merge = s.Solver, s.Merge
	if sub == "" {
		sub = "anneal"
	}
	if merge == "" {
		merge = "anneal"
	}
	return sub, merge
}

// Name implements solver.Solver.
func (s RemoteSolver) Name() string {
	sub, _ := s.solvers()
	return "remote:" + sub
}

// ConfigTag exposes the result-determining configuration — what goes
// into the SolveRequest, and the local fallback's own solver.ConfigTag
// — and nothing else. Client identity, retry shape and timeouts are
// transport, not identity: the daemons are deterministic, so any of
// them answers a given request with the same bits. This keeps
// checkpoint headers stable across processes and daemon URLs, which is
// what lets a fleet re-park a remote-dispatched run onto a different
// worker and resume it.
func (s RemoteSolver) ConfigTag() string {
	sub, merge := s.solvers()
	fb := ""
	if s.Fallback != nil {
		fb = solver.ConfigTag(s.Fallback)
	}
	return fmt.Sprintf("remote|solver:%s|merge:%s|layers:%d|maxQubits:%d|fallback:%s",
		sub, merge, s.Layers, s.MaxQubits, fb)
}

// SolveSub implements solver.Solver by submitting the sub-graph and
// waiting on the daemon's event stream, retrying transient failures
// and degrading to Fallback when the remote path is exhausted.
func (s RemoteSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := s.SolveSubAttributed(g, r)
	return cut, err
}

// SolveSubAttributed implements solver.Attributor: the identical cut
// SolveSub returns, plus attribution that records a degradation to
// the local fallback as "remote attempt failed → fallback won".
func (s RemoteSolver) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, solver.Report, error) {
	if s.Client == nil {
		return maxcut.Cut{}, solver.Report{}, fmt.Errorf("hpc: RemoteSolver needs a Client")
	}
	// One seed per leaf, drawn before any fallible I/O: every retry
	// and the local fallback all solve the identical (graph, seed).
	seed := r.Uint64()

	start := time.Now()
	cut, err := s.solveRemote(g, seed)
	if err == nil {
		return cut, solver.Report{Winner: s.Name()}, nil
	}
	if s.Fallback == nil {
		return maxcut.Cut{}, solver.Report{}, err
	}

	// Graceful degradation: the remote path is spent — solve locally
	// with the SAME leaf seed and attribute both attempts.
	report := solver.Report{Attempts: []solver.Attempt{{
		Solver: s.Name(),
		Nanos:  time.Since(start).Nanoseconds(),
		Err:    err.Error(),
	}}}
	fbName := "fallback:" + s.Fallback.Name()
	fbStart := time.Now()
	fbCut, fbErr := s.Fallback.SolveSub(g, rng.New(seed))
	if fbErr != nil {
		report.Attempts = append(report.Attempts, solver.Attempt{
			Solver: fbName,
			Nanos:  time.Since(fbStart).Nanoseconds(),
			Err:    fbErr.Error(),
		})
		return maxcut.Cut{}, report, fmt.Errorf("hpc: remote solve failed (%v) and fallback %s failed: %w", err, s.Fallback.Name(), fbErr)
	}
	report.Winner = fbName
	report.Attempts = append(report.Attempts, solver.Attempt{
		Solver: fbName,
		Value:  fbCut.Value,
		Nanos:  time.Since(fbStart).Nanoseconds(),
	})
	return fbCut, report, nil
}

// solveRemote runs the retried remote dispatch for one (graph, seed)
// leaf. Each attempt resubmits — idempotent by construction — and
// follows the job's event stream to a settled status.
func (s RemoteSolver) solveRemote(g *graph.Graph, seed uint64) (maxcut.Cut, error) {
	sub, merge := s.solvers()
	maxQubits := s.MaxQubits
	if maxQubits <= 0 {
		maxQubits = g.N()
	}
	req := serve.SolveRequest{
		Graph:     serve.GraphSpecOf(g),
		MaxQubits: maxQubits,
		Solver:    sub,
		Merge:     merge,
		Layers:    s.Layers,
		Seed:      seed,
	}

	pol := s.Retry
	if pol.MaxAttempts == 0 {
		pol = retry.Default(seed)
	}
	// The attempt timeout moves to the single-attempt copy, whose
	// policy bounds only the submission: the stream of a long leaf on
	// a healthy daemon must not expire with it.
	once := *s.Client
	once.Retry = retry.Policy{AttemptTimeout: pol.AttemptTimeout}
	pol.AttemptTimeout = 0

	var cut maxcut.Cut
	err := pol.Do(context.Background(), func(actx context.Context) error {
		st, err := once.Solve(actx, req, nil)
		if err != nil {
			return err
		}
		switch st.State {
		case serve.JobDone:
		case serve.JobFailed:
			// The daemon ran the job and rejected it (unknown solver,
			// bad graph): retrying the identical request cannot help.
			return retry.MarkTerminal(fmt.Errorf("hpc: remote job %s failed: %s", st.ID, st.Error))
		default:
			// Parked by a drain: the restarted daemon resumes the job
			// from its checkpoint, and our resubmission coalesces onto
			// the resumed run.
			return retry.MarkRetryable(fmt.Errorf("hpc: remote job %s parked (%s): daemon drained mid-solve", st.ID, st.State))
		}
		spins, err := serve.DecodeSpins(st.Result.Spins)
		if err != nil {
			return retry.MarkTerminal(fmt.Errorf("hpc: remote job %s: %w", st.ID, err))
		}
		if len(spins) != g.N() {
			return retry.MarkTerminal(fmt.Errorf("hpc: remote job %s returned %d spins for %d nodes",
				st.ID, len(spins), g.N()))
		}
		cut = maxcut.Cut{Spins: spins, Value: st.Result.Value}
		return nil
	})
	if err != nil {
		return maxcut.Cut{}, fmt.Errorf("hpc: remote solve: %w", err)
	}
	return cut, nil
}
