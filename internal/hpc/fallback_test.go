package hpc

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	q2 "qaoa2/internal/qaoa2"
	"qaoa2/internal/retry"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// failingSolver always errors; it stands in for a broken local path.
type failingSolver struct{}

func (failingSolver) Name() string { return "failing" }

func (failingSolver) SolveSub(*graph.Graph, *rng.Rand) (maxcut.Cut, error) {
	return maxcut.Cut{}, fmt.Errorf("failing: no local capacity")
}

// tinyRetry keeps test retry loops fast.
func tinyRetry(attempts int) retry.Policy {
	return retry.Policy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Seed:        1,
	}
}

// TestFallbackDegradation is the graceful-degradation acceptance
// test: with the daemon entirely unreachable, a full QAOA² solve (≥8
// leaves) still completes in bounded time — each leaf spends its small
// retry budget on refused dials — and every leaf's cut comes from the
// local fallback, bit-identical to a purely local run. The degradation
// is visible in the attribution: each SubReport's winner is
// "fallback:anneal" with the failed remote attempt on record.
func TestFallbackDegradation(t *testing.T) {
	big := graph.ErdosRenyi(48, 0.15, graph.Unweighted, rng.New(6))
	dead := RemoteSolver{
		// Nothing listens here: every dial is refused immediately.
		Client:   &serve.Client{Base: "http://127.0.0.1:1"},
		Retry:    tinyRetry(3),
		Fallback: solver.AnnealSolver{},
	}

	start := time.Now()
	degraded, err := q2.Solve(big, q2.Options{
		MaxQubits:   6,
		Solver:      dead,
		MergeSolver: solver.AnnealSolver{},
		Seed:        4,
	})
	if err != nil {
		t.Fatalf("degraded solve failed outright: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("degraded solve took %v; the retry budget did not bound the damage", elapsed)
	}
	if degraded.SubGraphs < 8 {
		t.Fatalf("only %d leaves; the instance under-exercises the degradation", degraded.SubGraphs)
	}

	// Bit-identical to the purely local run with the same seeds.
	local, err := q2.Solve(big, q2.Options{
		MaxQubits:   6,
		Solver:      localMirror{},
		MergeSolver: solver.AnnealSolver{},
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if serve.EncodeSpins(degraded.Cut.Spins) != serve.EncodeSpins(local.Cut.Spins) ||
		degraded.Cut.Value != local.Cut.Value {
		t.Fatalf("degraded cut (%v) differs from local cut (%v)", degraded.Cut.Value, local.Cut.Value)
	}

	// Degradation is attributed, not silent.
	if len(degraded.SubReports) < 8 {
		t.Fatalf("%d sub-reports", len(degraded.SubReports))
	}
	for i, sr := range degraded.SubReports {
		if sr.Solver != "fallback:anneal" {
			t.Fatalf("leaf %d attributed to %q, want fallback:anneal", i, sr.Solver)
		}
		if len(sr.Attempts) != 2 {
			t.Fatalf("leaf %d has %d attempts, want remote failure + fallback", i, len(sr.Attempts))
		}
		if sr.Attempts[0].Solver != "remote:anneal" || sr.Attempts[0].Err == "" {
			t.Fatalf("leaf %d first attempt %+v, want failed remote:anneal", i, sr.Attempts[0])
		}
		if sr.Attempts[1].Solver != "fallback:anneal" || sr.Attempts[1].Err != "" {
			t.Fatalf("leaf %d second attempt %+v, want clean fallback", i, sr.Attempts[1])
		}
	}
}

// TestFallbackBothPathsFail: with no daemon AND a failing fallback the
// error names both causes, so operators see the whole ladder.
func TestFallbackBothPathsFail(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(1))
	dead := RemoteSolver{
		Client:   &serve.Client{Base: "http://127.0.0.1:1"},
		Retry:    tinyRetry(2),
		Fallback: failingSolver{},
	}
	_, err := dead.SolveSub(g, rng.New(1))
	if err == nil {
		t.Fatal("double failure reported success")
	}
	if !strings.Contains(err.Error(), "fallback") || !strings.Contains(err.Error(), "remote solve failed") {
		t.Fatalf("error %q does not name both failures", err)
	}
}

// TestRemoteTerminalSkipsFallback: a daemon-side rejection (unknown
// solver) is a configuration bug, not an outage — it must fail loudly
// rather than silently masking the typo behind the fallback... unless
// a fallback is configured, in which case availability wins and the
// degradation is attributed. This pins the current choice: Fallback
// covers ALL remote failures, terminal included.
func TestRemoteTerminalFallsBack(t *testing.T) {
	_, client := startService(t)
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(1))
	bad := RemoteSolver{Client: client, Solver: "bogus", Retry: tinyRetry(3), Fallback: solver.AnnealSolver{}}
	cut, report, err := bad.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatalf("fallback did not rescue a terminal rejection: %v", err)
	}
	if report.Winner != "fallback:anneal" || len(cut.Spins) != 8 {
		t.Fatalf("winner %q, %d spins", report.Winner, len(cut.Spins))
	}
	if !strings.Contains(report.Attempts[0].Err, "unknown solver") {
		t.Fatalf("remote attempt error %q lost the root cause", report.Attempts[0].Err)
	}
}

// refusingTransport counts dials to a daemon that is down.
type refusingTransport struct{ dials atomic.Int32 }

func (rt *refusingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	rt.dials.Add(1)
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

// TestRemoteRetryIsTheOnlyLoop: against a dead daemon, RemoteSolver's
// two attempts dial twice — the client's own three-attempt policy does
// not nest inside them — and the error says "exhausted" once.
func TestRemoteRetryIsTheOnlyLoop(t *testing.T) {
	tr := &refusingTransport{}
	client := &serve.Client{Base: "http://daemon.invalid", HTTP: &http.Client{Transport: tr}, Retry: tinyRetry(3)}
	dead := RemoteSolver{Client: client, Retry: tinyRetry(2)}
	_, err := dead.SolveSub(graph.ErdosRenyi(6, 0.5, graph.Unweighted, rng.New(1)), rng.New(1))
	if err == nil {
		t.Fatal("dead daemon reported success")
	}
	if n := tr.dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2 (one per RemoteSolver attempt)", n)
	}
	if n := strings.Count(err.Error(), "exhausted"); n != 1 || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("error %q: want one exhaustion, after 2 attempts", err)
	}
}

// slowAnneal is AnnealSolver behind a fixed delay: a leaf that takes
// longer than a submission should.
type slowAnneal struct{ solver.AnnealSolver }

func (s slowAnneal) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	time.Sleep(400 * time.Millisecond)
	return s.AnnealSolver.SolveSub(g, r)
}

func init() {
	// A test-only registry name the daemon under test resolves like
	// any other.
	if err := solver.Register("slow-anneal", func(solver.Spec) (solver.Solver, error) {
		return slowAnneal{}, nil
	}); err != nil {
		panic(err)
	}
}

// TestRemoteLeafOutlivesAttemptTimeout: the attempt timeout bounds a
// submission, not the streamed solve. A healthy daemon whose leaf
// takes 400 ms answers a RemoteSolver with 100 ms attempts; the leaf
// is not retried into exhaustion and handed to a fallback.
func TestRemoteLeafOutlivesAttemptTimeout(t *testing.T) {
	_, client := startService(t)
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(1))
	slow := RemoteSolver{Client: client, Solver: "slow-anneal",
		Retry: retry.Policy{MaxAttempts: 2, AttemptTimeout: 100 * time.Millisecond}}
	cut, err := slow.SolveSub(g, rng.New(1))
	if err != nil {
		t.Fatalf("healthy daemon, 400 ms leaf: %v", err)
	}
	want, err := localMirror{}.SolveSub(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if serve.EncodeSpins(cut.Spins) != serve.EncodeSpins(want.Spins) || cut.Value != want.Value {
		t.Fatalf("remote cut %v differs from the local anneal %v", cut.Value, want.Value)
	}
}

// TestRemoteRefusesDoneWithoutResult: a daemon that answers a
// submission with a done status but no result fails the leaf with a
// terminal error after one request, or hands it to the fallback,
// instead of dereferencing the missing result.
func TestRemoteRefusesDoneWithoutResult(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintln(w, `{"id":"abc","state":"done"}`)
	}))
	defer hs.Close()
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(1))

	bare := RemoteSolver{Client: &serve.Client{Base: hs.URL}, Retry: tinyRetry(3)}
	if _, err := bare.SolveSub(g, rng.New(1)); !errors.Is(err, serve.ErrNoResult) {
		t.Fatalf("error %v, want serve.ErrNoResult", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d submissions, want 1: the refusal is terminal", n)
	}

	backed := RemoteSolver{Client: &serve.Client{Base: hs.URL}, Retry: tinyRetry(3), Fallback: solver.AnnealSolver{}}
	cut, report, err := backed.SolveSubAttributed(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := localMirror{}.SolveSub(g, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if report.Winner != "fallback:anneal" || serve.EncodeSpins(cut.Spins) != serve.EncodeSpins(want.Spins) {
		t.Fatalf("winner %q, cut %v; want the fallback's %v", report.Winner, cut.Value, want.Value)
	}
}
