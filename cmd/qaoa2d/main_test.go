package main

import (
	"context"

	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	root "qaoa2"
	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	q2 "qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// drainGate holds sub-solves of the "gated-anneal" solver: once armed,
// it lets `free` of them through and parks every later one until
// released. The gate is package state, not a field, so the solver's
// ConfigTag prints the same in both daemon generations of a test.
var drainGate struct {
	mu      sync.Mutex
	free    int
	release chan struct{} // nil: the gate is open
}

// gatedAnneal runs the registry's anneal solver behind drainGate.
type gatedAnneal struct{ solver.AnnealSolver }

func (s gatedAnneal) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	drainGate.mu.Lock()
	hold := drainGate.release
	if drainGate.free > 0 {
		drainGate.free--
		hold = nil
	}
	drainGate.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return s.AnnealSolver.SolveSub(g, r)
}

func init() {
	// A test-only registry name: the daemon under test resolves it with
	// its default ResolveSolvers, like any other name.
	if err := solver.Register("gated-anneal", func(solver.Spec) (solver.Solver, error) {
		return gatedAnneal{}, nil
	}); err != nil {
		panic(err)
	}
}

// TestUsageErrorsExitTwo pins the CLI contract: usage errors report to
// stderr and return 2.
func TestUsageErrorsExitTwo(t *testing.T) {
	var errb strings.Builder
	if code := run([]string{"-bogus"}, io.Discard, &errb, nil); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-bogus") {
		t.Fatalf("stderr missing the offending flag:\n%s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"positional"}, io.Discard, &errb, nil); code != 2 {
		t.Fatalf("positional argument exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unexpected arguments") {
		t.Fatalf("stderr missing the usage complaint:\n%s", errb.String())
	}
}

// startDaemon launches run() in a goroutine and returns the bound
// address and the exit-code channel.
func startDaemon(t *testing.T, dir string) (string, chan int) {
	t.Helper()
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{
			"-addr", "127.0.0.1:0", "-dir", dir,
			"-parallelism", "2", "-job-parallelism", "2", "-queue", "32",
		}, io.Discard, os.Stderr, ready)
	}()
	select {
	case addr := <-ready:
		return addr, exit
	case code := <-exit:
		t.Fatalf("daemon exited immediately with code %d", code)
		return "", nil
	}
}

// ringReq builds a small direct-solve request.
func ringReq(n int, seed uint64) serve.SolveRequest {
	spec := serve.GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, serve.EdgeSpec{I: i, J: (i + 1) % n, W: 1})
	}
	return serve.SolveRequest{Graph: spec, MaxQubits: 16, Solver: "anneal", Merge: "anneal", Seed: seed}
}

// waitDraining polls the daemon's health until it reports draining.
func waitDraining(t *testing.T, client *serve.Client) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := client.Health(context.Background())
		if err == nil && h["status"] == "draining" {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("daemon never reported draining (last %v, %v)", h, err)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDrainResumeEndToEnd is the daemon acceptance test: ≥8
// concurrent submissions (with duplicates) against a live qaoa2d,
// coalesced/cached duplicate handling, ordered NDJSON event streams,
// then a SIGTERM mid-way through a long solve — the daemon drains,
// exits 0, and a restarted daemon on the same state dir resumes the
// parked job to a final cut bit-identical to an uninterrupted run.
func TestServeDrainResumeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	addr, exit := startDaemon(t, dir)
	client := &serve.Client{Base: "http://" + addr}
	ctx := context.Background()

	// 8 concurrent submissions: 5 distinct jobs + 3 duplicates of the
	// first.
	reqs := make([]serve.SolveRequest, 0, 8)
	for i := 0; i < 5; i++ {
		reqs = append(reqs, ringReq(10+i, uint64(40+i)))
	}
	for i := 0; i < 3; i++ {
		reqs = append(reqs, ringReq(10, 40)) // duplicate of reqs[0]
	}
	statuses := make([]serve.JobStatus, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], errs[i] = client.Submit(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	dupHits := 0
	for _, st := range []serve.JobStatus{statuses[0], statuses[5], statuses[6], statuses[7]} {
		if st.ID != statuses[0].ID {
			t.Fatalf("duplicate submission got job %s, want %s", st.ID, statuses[0].ID)
		}
		if st.Cached || st.Coalesced {
			dupHits++
		}
	}
	if dupHits != 3 {
		t.Fatalf("%d of 4 same-key submissions were coalesced/cached, want exactly 3", dupHits)
	}

	// Every distinct job completes; its NDJSON stream is gap-free and
	// ends in a done status.
	for i := 0; i < 5; i++ {
		var seqs []int
		fin, err := client.Stream(ctx, statuses[i].ID, func(ev serve.Event) {
			seqs = append(seqs, ev.Seq)
		})
		if err != nil {
			t.Fatalf("stream job %d: %v", i, err)
		}
		if fin.State != serve.JobDone || fin.Result == nil {
			t.Fatalf("job %d finished as %s (err %q)", i, fin.State, fin.Error)
		}
		for k, seq := range seqs {
			if seq != k+1 {
				t.Fatalf("job %d event %d has seq %d, want %d", i, k, seq, k+1)
			}
		}
	}
	// A duplicate resubmitted after completion is a pure cache hit.
	again, err := client.Submit(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != serve.JobDone {
		t.Fatalf("post-completion duplicate not served from cache: %+v", again)
	}

	// The long job: ~300 sub-solves. The gate lets 10 through and parks
	// the rest; SIGTERM goes out once those 10 have streamed, and the
	// gate opens only after the daemon reports draining. However slowly
	// the callback runs, the drain lands mid-solve and the job parks
	// with a checkpoint.
	big := root.ErdosRenyi(1500, 0.01, root.Unweighted, root.NewRand(11))
	bigReq := serve.SolveRequest{
		Graph:     serve.GraphSpecOf(big),
		MaxQubits: 10,
		Solver:    "gated-anneal",
		Merge:     "anneal",
		Seed:      11,
	}
	release := make(chan struct{})
	drainGate.mu.Lock()
	drainGate.free, drainGate.release = 10, release
	drainGate.mu.Unlock()
	defer func() {
		drainGate.mu.Lock()
		if drainGate.release != nil {
			close(drainGate.release)
			drainGate.release = nil
		}
		drainGate.mu.Unlock()
	}()
	bigSt, err := client.Submit(ctx, bigReq)
	if err != nil {
		t.Fatal(err)
	}
	var killOnce sync.Once
	subSolves := 0
	parked, err := client.Stream(ctx, bigSt.ID, func(ev serve.Event) {
		if ev.Kind == "sub-solve" {
			subSolves++
			if subSolves == 10 {
				killOnce.Do(func() {
					syscall.Kill(os.Getpid(), syscall.SIGTERM)
					waitDraining(t, client)
					drainGate.mu.Lock()
					close(release)
					drainGate.release = nil
					drainGate.mu.Unlock()
				})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if parked.State != serve.JobQueued {
		t.Fatalf("drained job settled as %s, want queued (parked)", parked.State)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d after SIGTERM drain, want 0", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// Restart on the same state dir: the parked job resumes from its
	// checkpoint and completes.
	addr2, exit2 := startDaemon(t, dir)
	client2 := &serve.Client{Base: "http://" + addr2}
	var final serve.JobStatus
	deadline := time.Now().Add(120 * time.Second)
	for {
		final, err = client2.Job(ctx, bigSt.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State == serve.JobDone || final.State == serve.JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %s", final.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != serve.JobDone {
		t.Fatalf("resumed job finished as %s (err %q)", final.State, final.Error)
	}
	if final.Restores < 10 {
		t.Fatalf("resumed job restored %d checkpointed solves, want >= 10", final.Restores)
	}

	// Bit-identity against an uninterrupted in-process run of the
	// exact same configuration (the registry's solvers, the sync
	// path — which the runtime matches bit-for-bit).
	solvers, err := serve.ResolveSolvers(bigReq)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := q2.Solve(big, q2.Options{
		MaxQubits:   bigReq.MaxQubits,
		Solver:      solvers.Sub,
		MergeSolver: solvers.Merge,
		Seed:        bigReq.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := final.Result.Spins, serve.EncodeSpins(ref.Cut.Spins); got != want {
		t.Fatalf("resumed final cut is not bit-identical to the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if final.Result.Value != ref.Cut.Value {
		t.Fatalf("resumed cut value %v, uninterrupted %v", final.Result.Value, ref.Cut.Value)
	}

	// Second SIGTERM shuts the restarted daemon down cleanly.
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	select {
	case code := <-exit2:
		if code != 0 {
			t.Fatalf("second daemon exited %d, want 0", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("second daemon did not exit after SIGTERM")
	}
}
