package hpc

import (
	"net/http/httptest"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	q2 "qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// startService spins an in-process solve service with an HTTP front.
func startService(t *testing.T) (*serve.Server, *serve.Client) {
	t.Helper()
	srv, err := serve.New(serve.Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, &serve.Client{Base: hs.URL, HTTP: hs.Client()}
}

// localMirror reproduces RemoteSolver's seed derivation against the
// local registry solver, so remote and local results are comparable
// spin for spin.
type localMirror struct{}

func (localMirror) Name() string { return "local-mirror" }

func (localMirror) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	return solver.AnnealSolver{}.SolveSub(g, rng.New(r.Uint64()))
}

// TestRemoteSolverMatchesLocal pins the dispatch contract: a remote
// sub-solve returns exactly the cut the equivalent local solver
// produces, and duplicate sub-graphs are served from the daemon's
// result cache instead of re-solving.
func TestRemoteSolverMatchesLocal(t *testing.T) {
	srv, client := startService(t)
	remote := RemoteSolver{Client: client}
	if remote.Name() != "remote:anneal" {
		t.Fatalf("name %q", remote.Name())
	}

	g := graph.ErdosRenyi(12, 0.4, graph.Unweighted, rng.New(3))
	got, err := remote.SolveSub(g, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	want, err := localMirror{}.SolveSub(g, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if serve.EncodeSpins(got.Spins) != serve.EncodeSpins(want.Spins) || got.Value != want.Value {
		t.Fatalf("remote cut (%v, %s) differs from local (%v, %s)",
			got.Value, serve.EncodeSpins(got.Spins), want.Value, serve.EncodeSpins(want.Spins))
	}

	// The identical sub-solve resubmits onto the same job: still one
	// job on the daemon, same result.
	again, err := remote.SolveSub(g, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if serve.EncodeSpins(again.Spins) != serve.EncodeSpins(got.Spins) {
		t.Fatal("cached remote solve returned a different cut")
	}
	if jobs := srv.Jobs(); len(jobs) != 1 {
		t.Fatalf("%d jobs on the daemon after a duplicate sub-solve, want 1", len(jobs))
	}
}

// TestRemoteSolverInsideDivideAndConquer runs a full QAOA² solve with
// remote leaf dispatch and checks it is bit-identical to the same
// solve with the mirrored local solver.
func TestRemoteSolverInsideDivideAndConquer(t *testing.T) {
	_, client := startService(t)
	big := graph.ErdosRenyi(40, 0.15, graph.Unweighted, rng.New(5))

	remoteRes, err := q2.Solve(big, q2.Options{
		MaxQubits:   8,
		Solver:      RemoteSolver{Client: client},
		MergeSolver: solver.AnnealSolver{},
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := q2.Solve(big, q2.Options{
		MaxQubits:   8,
		Solver:      localMirror{},
		MergeSolver: solver.AnnealSolver{},
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if serve.EncodeSpins(remoteRes.Cut.Spins) != serve.EncodeSpins(localRes.Cut.Spins) {
		t.Fatal("remote-dispatched solve differs from local solve")
	}
	if remoteRes.Cut.Value != localRes.Cut.Value {
		t.Fatalf("remote value %v, local %v", remoteRes.Cut.Value, localRes.Cut.Value)
	}
	if remoteRes.SubGraphs < 2 {
		t.Fatalf("instance did not exercise division (%d sub-graphs)", remoteRes.SubGraphs)
	}
}

// TestRemoteSolverErrors covers the failure surface.
func TestRemoteSolverErrors(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(1))
	if _, err := (RemoteSolver{}).SolveSub(g, rng.New(1)); err == nil {
		t.Fatal("nil client accepted")
	}
	_, client := startService(t)
	bad := RemoteSolver{Client: client, Solver: "bogus"}
	if _, err := bad.SolveSub(g, rng.New(1)); err == nil {
		t.Fatal("unknown remote solver accepted")
	}
}

// TestRemoteSolverConfigTagRendersFallback: the fallback is part of the
// identity by its whole config, not its name — two fallbacks that
// differ only in annealing sweeps solve differently once the remote
// path is exhausted, so they must not resume each other's checkpoints;
// the same config built twice must.
func TestRemoteSolverConfigTagRendersFallback(t *testing.T) {
	tag := func(sweeps int) string {
		return RemoteSolver{Fallback: solver.AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: sweeps}}}.ConfigTag()
	}
	if a, b := tag(50), tag(400); a == b {
		t.Fatalf("fallbacks with 50 and 400 sweeps share the tag %q", a)
	}
	if a, b := tag(50), tag(50); a != b {
		t.Fatalf("one fallback config tagged %q and %q", a, b)
	}
}
