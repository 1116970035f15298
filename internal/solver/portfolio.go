package solver

import (
	"fmt"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

// PortfolioSolver races every inner solver concurrently and keeps the
// best cut — algorithm-portfolio dispatch over the quantum/classical
// solver pool, the service-level form of the paper's run-time
// quantum-or-classical decision. Each member draws its randomness from
// the same Split(i+1) stream BestOfSolver uses, so with no deadline a
// portfolio returns the identical cut (and winner) as the equivalent
// best-of, at the wall time of the slowest member instead of the sum.
//
// Like best-of, the race is settled by a certified optimum
// (Report.Optimal): once a member finishes optimal and every member
// before it has finished — earliest index wins ties, so earlier members
// must still be heard — the portfolio returns without waiting for the
// rest and reports them SkippedOptimal, whether or not they happened to
// finish, so the report does not depend on machine speed.
//
// With a Deadline, members still running when it expires are abandoned
// (their goroutines finish in the background and are discarded) and
// the best finished cut wins; if nothing has finished, the race waits
// for the first finisher. A deadline therefore trades determinism for
// latency: results depend on machine speed, so deadline-bounded
// portfolios are for serving, not for reproducible experiments —
// checkpointed runs should leave Deadline zero.
type PortfolioSolver struct {
	// Solvers are the racing members.
	Solvers []Solver
	// Deadline bounds the race (0 = wait for every member).
	Deadline time.Duration
}

// Name implements Solver.
func (s PortfolioSolver) Name() string { return "portfolio" }

// SolveSub implements Solver.
func (s PortfolioSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := s.SolveSubAttributed(g, r)
	return cut, err
}

// outcome is one member's finished race leg. winner is the leaf
// solver that produced the cut (the member itself unless the member
// is a nested composite).
type outcome struct {
	idx     int
	cut     maxcut.Cut
	winner  string
	optimal bool
	nanos   int64
	err     error
}

// SolveSubAttributed implements Attributor: winner is the finished
// member with the best value, earliest index on ties.
func (s PortfolioSolver) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, Report, error) {
	n := len(s.Solvers)
	if n == 0 {
		return maxcut.Cut{}, Report{}, fmt.Errorf("solver: portfolio has no inner solvers")
	}
	// Derive every member's stream before any goroutine starts: rng
	// splits are not concurrency-safe, and the derivation must match
	// BestOfSolver's exactly for the no-deadline equivalence.
	streams := make([]*rng.Rand, n)
	for i := range streams {
		streams[i] = r.Split(uint64(i) + 1)
	}
	// Buffered to n so abandoned members never block when they finish
	// after the race is settled.
	ch := make(chan outcome, n)
	for i, inner := range s.Solvers {
		go func(i int, inner Solver) {
			start := time.Now()
			cut, rep, err := SolveAttributed(inner, g, streams[i])
			ch <- outcome{idx: i, cut: cut, winner: rep.Winner, optimal: rep.Optimal,
				nanos: time.Since(start).Nanoseconds(), err: err}
		}(i, inner)
	}

	var timeout <-chan time.Time
	if s.Deadline > 0 {
		timer := time.NewTimer(s.Deadline)
		defer timer.Stop()
		timeout = timer.C
	}
	finished := make([]*outcome, n)
	got := 0
	succeeded := 0
	// heard counts the members finished with no gap from index 0;
	// settled is the index of the certified optimum that ends the race
	// (n while there is none). It is the first optimal member in index
	// order whatever the finishing order, since the prefix before a
	// later one contains it.
	heard, settled := 0, n
	collect := func(o outcome) {
		finished[o.idx] = &o
		got++
		if o.err == nil {
			succeeded++
		}
		for ; heard < n && finished[heard] != nil && settled == n; heard++ {
			if f := finished[heard]; f.err == nil && f.optimal {
				settled = heard
			}
		}
	}
	expired := false
	for got < n && !expired && settled == n {
		select {
		case o := <-ch:
			collect(o)
		case <-timeout:
			expired = true
		}
	}
	// A portfolio must still answer: if the deadline expired before
	// any member SUCCEEDED (nothing finished, or only errors so far),
	// keep waiting until a success lands or every member is exhausted.
	for expired && succeeded == 0 && got < n {
		collect(<-ch)
	}

	rep := Report{Attempts: make([]Attempt, n), Optimal: settled < n}
	var best maxcut.Cut
	found := false
	var firstErr error
	for i, inner := range s.Solvers {
		if i > settled {
			rep.Attempts[i] = Attempt{Solver: inner.Name(), Err: SkippedOptimal}
			continue
		}
		o := finished[i]
		if o == nil {
			rep.Attempts[i] = Attempt{Solver: inner.Name(), Err: "portfolio: abandoned at deadline"}
			continue
		}
		if o.err != nil {
			rep.Attempts[i] = Attempt{Solver: inner.Name(), Nanos: o.nanos, Err: o.err.Error()}
			if firstErr == nil {
				firstErr = fmt.Errorf("solver: inner solver %s: %w", inner.Name(), o.err)
			}
			continue
		}
		rep.Attempts[i] = Attempt{Solver: o.winner, Value: o.cut.Value, Nanos: o.nanos}
		if !found || o.cut.Value > best.Value {
			best = o.cut
			rep.Winner = o.winner
			found = true
		}
	}
	if s.Deadline <= 0 && firstErr != nil {
		// Deterministic runs (no deadline) fail loudly like best-of
		// does. A deadline-bounded race tolerates member errors as
		// long as someone succeeded — keyed on the CONFIGURED mode,
		// not on whether the timer happened to fire, so success never
		// depends on machine speed.
		return maxcut.Cut{}, Report{}, firstErr
	}
	if !found {
		if firstErr != nil {
			return maxcut.Cut{}, Report{}, firstErr
		}
		return maxcut.Cut{}, Report{}, fmt.Errorf("solver: portfolio: no member finished")
	}
	return best, rep, nil
}
