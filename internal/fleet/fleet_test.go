package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/retry"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// erSpec builds a ring-plus-chords instance: enough structure to
// partition into several sub-graphs at small MaxQubits.
func erSpec(n int) serve.GraphSpec {
	spec := serve.GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, serve.EdgeSpec{I: i, J: (i + 1) % n, W: 1})
		if j := (i + 7) % n; j != i {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			spec.Edges = append(spec.Edges, serve.EdgeSpec{I: lo, J: hi, W: 0.5})
		}
	}
	return spec
}

func fleetReq(n, maxQubits int, seed uint64) serve.SolveRequest {
	return serve.SolveRequest{Graph: erSpec(n), MaxQubits: maxQubits, Solver: "anneal", Merge: "anneal", Seed: seed}
}

// slowAnneal delegates to the deterministic annealer after a fixed
// delay, so tests can catch jobs in flight. The struct's printed
// state is stable, so checkpoints resume across workers.
type slowAnneal struct{ DelayMS int }

func (s slowAnneal) Name() string { return "anneal" }

func (s slowAnneal) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	time.Sleep(time.Duration(s.DelayMS) * time.Millisecond)
	return solver.AnnealSolver{}.SolveSub(g, r)
}

func slowResolve(ms int) func(serve.SolveRequest) (serve.Solvers, error) {
	return func(serve.SolveRequest) (serve.Solvers, error) {
		return serve.Solvers{Sub: slowAnneal{DelayMS: ms}, Merge: slowAnneal{DelayMS: ms}}, nil
	}
}

// testWorker is one in-process qaoa2d: a serve.Server behind a real
// HTTP listener.
type testWorker struct {
	spec   WorkerSpec
	srv    *serve.Server
	hs     *httptest.Server
	killed atomic.Bool
}

// kill simulates a crashed worker: the listener closes, so new dials
// are refused, then every open connection is torn, so in-flight
// streams die mid-line. The serve.Server keeps running (a real crashed
// process would not), so the handler aborts every request that still
// reaches it after the kill: one on a connection accepted just before
// the listener closed, or on a pooled keep-alive connection. Without
// that, a /healthz probe could be answered by a killed worker.
func (w *testWorker) kill() {
	w.killed.Store(true)
	w.hs.Listener.Close()
	w.hs.CloseClientConnections()
}

// handler serves srv until the worker is killed.
func (w *testWorker) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.killed.Load() {
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(rw, r)
	})
}

// startFleet spins up n in-process workers plus a coordinator wired
// to them. resolve nil uses the registry default.
func startFleet(t *testing.T, n int, resolve func(serve.SolveRequest) (serve.Solvers, error)) ([]*testWorker, *Coordinator) {
	t.Helper()
	var specs []WorkerSpec
	var workers []*testWorker
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{
			GlobalParallelism: 2,
			StateDir:          t.TempDir(),
			Resolve:           resolve,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := &testWorker{srv: srv}
		w.hs = httptest.NewServer(w.handler(srv.Handler()))
		w.spec = WorkerSpec{Name: fmt.Sprintf("w%d", i), URL: w.hs.URL}
		workers = append(workers, w)
		specs = append(specs, w.spec)
	}
	c, err := New(Config{
		Workers:        specs,
		HealthInterval: 50 * time.Millisecond,
		Retry: retry.Policy{
			MaxAttempts: 4,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
			Seed:        1,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		for _, w := range workers {
			if !w.killed.Load() {
				w.hs.Close()
			}
			w.srv.Close()
		}
	})
	return workers, c
}

// refSolve computes the single-daemon reference results for a batch
// of requests — the bit-identity baseline every fleet run must match.
func refSolve(t *testing.T, resolve func(serve.SolveRequest) (serve.Solvers, error), reqs []serve.SolveRequest) []serve.JobStatus {
	t.Helper()
	srv, err := serve.New(serve.Config{GlobalParallelism: 2, Resolve: resolve})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := make([]serve.JobStatus, len(reqs))
	for i, req := range reqs {
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := srv.Done(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		case <-time.After(60 * time.Second):
			t.Fatalf("reference job %s timed out", st.ID)
		}
		fin, err := srv.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != serve.JobDone || fin.Result == nil {
			t.Fatalf("reference job %s: %+v", st.ID, fin)
		}
		out[i] = fin
	}
	return out
}

// solve is the front door's path through the coordinator, the one
// serve.Client.Solve takes against it: Submit, then Follow a job the
// submission did not settle.
func solve(ctx context.Context, c *Coordinator, req serve.SolveRequest, onEvent func(serve.Event)) (serve.JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err != nil || st.State == serve.JobDone || st.State == serve.JobFailed {
		return st, err
	}
	return c.Follow(ctx, st.ID, onEvent)
}

// TestRouteInvariants pins the rendezvous order: preference lists
// are complete, deterministic, reasonably balanced, and removing a
// member only remaps the keys that member owned.
func TestRouteInvariants(t *testing.T) {
	members := []string{"a", "b", "c"}

	counts := map[string]int{}
	const keys = 600
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		pref := preference(members, key)
		if len(pref) != len(members) {
			t.Fatalf("preference(%s) = %v, want all %d members", key, pref, len(members))
		}
		seen := map[string]bool{}
		for _, n := range pref {
			if seen[n] {
				t.Fatalf("preference(%s) repeats %s", key, n)
			}
			seen[n] = true
		}
		// Deterministic: recomputing yields the identical list.
		again := preference(members, key)
		if fmt.Sprint(pref) != fmt.Sprint(again) {
			t.Fatalf("preference(%s) unstable: %v vs %v", key, pref, again)
		}
		counts[pref[0]]++
	}
	for _, m := range members {
		if counts[m] < keys/10 {
			t.Fatalf("routing badly unbalanced: %v", counts)
		}
	}

	// Minimal disruption: drop "c"; every key NOT owned by c keeps its
	// owner.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		before := preference(members, key)[0]
		after := preference([]string{"a", "b"}, key)[0]
		if before != "c" && before != after {
			t.Fatalf("key %s moved %s→%s though its owner never left", key, before, after)
		}
	}
}

// TestSameFingerprintSameWorker: routing is a pure function of the
// job id while the health picture is stable — the fleet-level
// counterpart of the cache-key identity (same fingerprint, same
// worker, same cache).
func TestSameFingerprintSameWorker(t *testing.T) {
	_, c := startFleet(t, 3, nil)
	routed := map[string]string{}
	for i := 0; i < 40; i++ {
		req := fleetReq(10, 16, uint64(i))
		id, err := req.JobKey()
		if err != nil {
			t.Fatal(err)
		}
		first, err := c.Route(id)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			again, err := c.Route(id)
			if err != nil || again != first {
				t.Fatalf("route(%s) flapped: %s then %s (%v)", id, first, again, err)
			}
		}
		routed[id] = first
	}
	// A scheduling-only variation (priority) keeps the fingerprint and
	// therefore the route.
	req := fleetReq(10, 16, 7)
	req.Priority = serve.PriorityHigh
	req.Parallelism = 2
	id, err := req.JobKey()
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := c.Route(id); w != routed[id] {
		t.Fatalf("scheduling knobs changed the route: %s vs %s", w, routed[id])
	}
}

// TestFleetSolveBitIdenticalAndCached: fleet answers match the
// single-daemon reference bit for bit, and a resubmission of any of
// them is served from some worker's cache without a new solve.
func TestFleetSolveBitIdenticalAndCached(t *testing.T) {
	_, c := startFleet(t, 3, nil)
	var reqs []serve.SolveRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, fleetReq(24, 8, uint64(100+i)))
	}
	want := refSolve(t, nil, reqs)

	ctx := context.Background()
	for i, req := range reqs {
		st, err := solve(ctx, c, req, nil)
		if err != nil {
			t.Fatalf("fleet solve %d: %v", i, err)
		}
		if st.State != serve.JobDone || st.Result == nil {
			t.Fatalf("fleet job %d: %+v", i, st)
		}
		if st.Result.Spins != want[i].Result.Spins || st.Result.Value != want[i].Result.Value {
			t.Fatalf("fleet job %d diverged from single-daemon run:\n%+v\nvs\n%+v", i, st.Result, want[i].Result)
		}
	}

	// Remote cache hit: resubmitting any request answers from a
	// worker's cache — same bits as the local recompute above.
	base := c.Stats()
	for i, req := range reqs {
		st, err := solve(ctx, c, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached {
			t.Fatalf("resubmission %d was not a cache hit: %+v", i, st)
		}
		if st.Result.Spins != want[i].Result.Spins || st.Result.Value != want[i].Result.Value {
			t.Fatalf("cache hit %d diverged from local recompute", i)
		}
	}
	if got := c.Stats().CacheHits - base.CacheHits; got != len(reqs) {
		t.Fatalf("cache sweep hits = %d, want %d", got, len(reqs))
	}
}

// TestDrainReparkResumes: a worker drains mid-job; the coordinator
// fetches the drain checkpoint from the still-answering HTTP plane,
// seeds it to the replacement worker, and the re-routed job RESUMES
// (restored tasks > 0) to the bit-identical cut.
func TestDrainReparkResumes(t *testing.T) {
	workers, c := startFleet(t, 3, slowResolve(15))
	req := fleetReq(48, 6, 9)
	want := refSolve(t, slowResolve(0), []serve.SolveRequest{req})[0]

	id, err := req.JobKey()
	if err != nil {
		t.Fatal(err)
	}
	home, err := c.Route(id)
	if err != nil {
		t.Fatal(err)
	}
	var homeWorker *testWorker
	for _, w := range workers {
		if w.spec.Name == home {
			homeWorker = w
		}
	}

	// Drain the home worker once the job has checkpointed some leaves.
	drained := make(chan struct{})
	events := 0
	var once sync.Once
	onEvent := func(ev serve.Event) {
		events++
		if events == 3 {
			once.Do(func() {
				go func() {
					homeWorker.srv.Drain()
					close(drained)
				}()
			})
		}
	}

	st, err := solve(context.Background(), c, req, onEvent)
	if err != nil {
		t.Fatalf("fleet solve through drain: %v", err)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	if st.Result.Spins != want.Result.Spins || st.Result.Value != want.Result.Value {
		t.Fatalf("re-parked job diverged:\n%+v\nvs\n%+v", st.Result, want.Result)
	}
	if st.Restores == 0 {
		t.Fatal("re-routed job recomputed from scratch; the checkpoint hand-off never happened")
	}
	stats := c.Stats()
	if stats.Reparks == 0 {
		t.Fatalf("no re-park recorded: %+v", stats)
	}
}

// TestKillWorkerReRoutesBitIdentical: a worker dies abruptly (torn
// connections, refused dials) with jobs in flight; every job still
// completes, bit-identical to the single-daemon reference.
func TestKillWorkerReRoutesBitIdentical(t *testing.T) {
	workers, c := startFleet(t, 3, slowResolve(8))
	var reqs []serve.SolveRequest
	for i := 0; i < 9; i++ {
		reqs = append(reqs, fleetReq(32, 8, uint64(300+i)))
	}
	want := refSolve(t, slowResolve(0), reqs)

	// Find a victim that owns at least one request, so the kill is
	// guaranteed to strand in-flight work.
	victim := workers[0]
	for _, req := range reqs {
		id, err := req.JobKey()
		if err != nil {
			t.Fatal(err)
		}
		if home, _ := c.Route(id); home != "" {
			for _, w := range workers {
				if w.spec.Name == home {
					victim = w
				}
			}
			break
		}
	}

	ctx := context.Background()
	results := make([]serve.JobStatus, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req serve.SolveRequest) {
			defer wg.Done()
			results[i], errs[i] = solve(ctx, c, req, nil)
		}(i, req)
	}
	// Let the batch get airborne, then pull the plug.
	time.Sleep(60 * time.Millisecond)
	victim.kill()
	wg.Wait()

	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("job %d failed across the kill: %v", i, errs[i])
		}
		if results[i].State != serve.JobDone || results[i].Result == nil {
			t.Fatalf("job %d: %+v", i, results[i])
		}
		if results[i].Result.Spins != want[i].Result.Spins || results[i].Result.Value != want[i].Result.Value {
			t.Fatalf("job %d diverged after worker kill:\n%+v\nvs\n%+v", i, results[i].Result, want[i].Result)
		}
	}
	// The health plane noticed the death.
	c.CheckNow()
	dead := 0
	for _, w := range c.Workers() {
		if w.State == WorkerDead {
			dead++
		}
	}
	if dead != 1 {
		t.Fatalf("worker states after kill: %+v", c.Workers())
	}
}

// TestBadRequestIsNotAFailover: a request every worker refuses (an
// unknown solver) is the client's fault, not a worker's. Submit and
// the front door return the worker's own answer (its text, and 400
// at the front door), every worker stays healthy, and no failover is
// counted.
func TestBadRequestIsNotAFailover(t *testing.T) {
	_, c := startFleet(t, 3, nil)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	req := fleetReq(10, 8, 5)
	req.Solver = "no-such-solver"
	const want = `unknown solver "no-such-solver"`

	ctx := context.Background()
	if _, err := c.Submit(ctx, req); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Submit: %v, want the worker's %q", err, want)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(reply.Error, want) {
		t.Fatalf("front door: HTTP %d %q (%v), want 400 and the worker's %q", resp.StatusCode, reply.Error, err, want)
	}

	for _, w := range c.Workers() {
		if w.State != WorkerHealthy {
			t.Fatalf("a bad request marked %s %s: %+v", w.Name, w.State, c.Workers())
		}
	}
	if s := c.Stats(); s.Failovers != 0 {
		t.Fatalf("a bad request counted failovers: %+v", s)
	}
}

// TestDoneWithoutResultFailsOver: a worker that answers with done
// statuses that carry no result is a broken worker, not a settled job.
// The job homed on it fails over to a sound worker, bit-identical to
// the single-daemon reference, and the broken worker is marked dead.
func TestDoneWithoutResultFailsOver(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			fmt.Fprintln(w, `{"status":"ok"}`)
		case strings.HasSuffix(r.URL.Path, "/checkpoint"):
			http.NotFound(w, r)
		default:
			fmt.Fprintln(w, `{"id":"abc","state":"done"}`)
		}
	}))
	defer broken.Close()
	srv, err := serve.New(serve.Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sound := httptest.NewServer(srv.Handler())
	defer sound.Close()
	c, err := New(Config{
		Workers:        []WorkerSpec{{Name: "broken", URL: broken.URL}, {Name: "sound", URL: sound.URL}},
		HealthInterval: -1,
		Retry:          retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A request whose home is the broken worker.
	var req serve.SolveRequest
	for seed := uint64(1); ; seed++ {
		req = fleetReq(16, 8, seed)
		id, err := req.JobKey()
		if err != nil {
			t.Fatal(err)
		}
		if home, _ := c.Route(id); home == "broken" {
			break
		}
	}
	want := refSolve(t, nil, []serve.SolveRequest{req})[0]

	st, err := solve(context.Background(), c, req, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if st.Result == nil || st.Result.Spins != want.Result.Spins || st.Result.Value != want.Result.Value {
		t.Fatalf("failed-over job %+v, want the reference %+v", st, want.Result)
	}
	if s := c.Stats(); s.Failovers != 1 {
		t.Fatalf("stats %+v, want one failover", s)
	}
	for _, w := range c.Workers() {
		if want := map[string]WorkerState{"broken": WorkerDead, "sound": WorkerHealthy}[w.Name]; w.State != want {
			t.Fatalf("worker %s %s, want %s: %+v", w.Name, w.State, want, c.Workers())
		}
	}
}

// TestSettledRouteForgetsRequest: once the front door sees a job done,
// its route entry keeps the worker name and no request, so no graph
// outlives the job there; status and stream requests still reach the
// worker that holds the result.
func TestSettledRouteForgetsRequest(t *testing.T) {
	_, c := startFleet(t, 2, nil)
	ctx := context.Background()
	st, err := c.Submit(ctx, fleetReq(24, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.JobDone && st.State != serve.JobFailed {
		if e, ok := c.lookupRoute(st.ID); !ok || e.req == nil {
			t.Fatalf("in-flight job %s: route entry %+v lost its request", st.ID, e)
		}
	}
	final, err := c.Follow(ctx, st.ID, nil)
	if err != nil || final.State != serve.JobDone {
		t.Fatalf("follow: %+v, %v", final, err)
	}
	e, ok := c.lookupRoute(st.ID)
	if !ok || e.worker == "" || e.req != nil {
		t.Fatalf("settled job %s: route entry %+v, want the worker name only", st.ID, e)
	}
	again, err := c.Follow(ctx, st.ID, nil)
	if err != nil || again.Result == nil || again.Result.Spins != final.Result.Spins {
		t.Fatalf("settled job re-followed: %+v, %v", again, err)
	}
	if polled, err := c.Job(ctx, st.ID); err != nil || polled.State != serve.JobDone {
		t.Fatalf("settled job polled: %+v, %v", polled, err)
	}
}
