package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/retry"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// Sizes of the serve-mix schedule (full, smoke).
var (
	serveGraphs   = [2]int{48, 8}
	serveBatch    = [2]int{64, 12}
	serveColdJobs = [2]int{16, 4}
	serveMinNodes = [2]int{60, 16}
	serveMaxNodes = [2]int{160, 30}
)

// slot is one submission of a batch.
type slot struct {
	graph int  // index into schedule.graphs
	first int  // the earlier slot this one repeats, else its own index
	high  bool // priority: high
}

// schedule is the traffic of one batch; every batch replays it with its
// own solve seeds, so batches do equal work and never share cache
// entries.
type schedule struct {
	seed   uint64
	maxQ   int
	leaf   solver.Spec
	merge  string
	graphs []*graph.Graph
	specs  []serve.GraphSpec
	slots  []slot
}

// makeSchedule draws the graphs and the batch sequence from the seed.
// What sets the amount of work is fixed, not sampled, so that runs on
// different seeds compare: graph sizes are spread evenly over the range,
// 30% of the slots repeat an earlier slot of the batch and 10% are high
// priority. The seed draws the edges and the order.
func makeSchedule(w workload, seed uint64, smoke bool) schedule {
	k := smokeIndex(smoke)
	s := schedule{seed: seed, maxQ: w.maxQubits[k], leaf: w.leaf, merge: w.merge.Name}
	for i := 0; i < serveGraphs[k]; i++ {
		n := serveMinNodes[k] + i*(serveMaxNodes[k]-serveMinNodes[k])/(serveGraphs[k]-1)
		g := graph.ErdosRenyi(n, 6/float64(n), graph.Unweighted, instanceRand(seed, i))
		s.graphs = append(s.graphs, g)
		s.specs = append(s.specs, serve.GraphSpecOf(g))
	}
	n := serveBatch[k]
	r := rng.New(seed).Split(0x5c4ed)
	repeat, high := pick(r, n, n*3/10, 1), pick(r, n, n/10, 0)
	order := r.Perm(len(s.graphs))
	fresh := 0
	for i := 0; i < n; i++ {
		sl := slot{first: i, high: high[i]}
		if repeat[i] {
			sl.first = s.slots[r.Intn(i)].first
			sl.graph = s.slots[sl.first].graph
		} else {
			sl.graph = order[fresh%len(order)]
			fresh++
		}
		s.slots = append(s.slots, sl)
	}
	return s
}

// pick marks exactly k of the positions from..n-1.
func pick(r *rng.Rand, n, k, from int) []bool {
	marked := make([]bool, n)
	for _, p := range r.Perm(n - from)[:k] {
		marked[from+p] = true
	}
	return marked
}

// request is the submission of a slot in a batch. A repeat is
// byte-identical to the slot it repeats.
func (s schedule) request(batch, i int) serve.SolveRequest {
	sl := s.slots[s.slots[i].first]
	req := serve.SolveRequest{
		Graph:     s.specs[sl.graph],
		MaxQubits: s.maxQ,
		Solver:    s.leaf.Name,
		Merge:     s.merge,
		Layers:    s.leaf.Layers,
		Seed:      s.seed*1_000_003 + uint64(batch)*1000 + uint64(sl.graph) + 1,
	}
	if sl.high {
		req.Priority = serve.PriorityHigh
	}
	return req
}

// serveRunner owns an in-process solve service behind a loopback
// listener and drives it through serve.Client.
type serveRunner struct {
	sched   schedule
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve has returned
	trans   *http.Transport
	client  *serve.Client
	clients int
	cold    int // jobs of a cold start
	tr      *tracer
	spanOf  sync.Map // request seed → span id of its first submitter
	last    batchStats
}

// batchStats is what the closed loop saw during one batch.
type batchStats struct {
	latency   []float64 // per slot, seconds
	cached    []bool    // per slot: answered from the result cache
	coalesced int
	rejected  int
	events    int
	att       attemptStats // best-of attribution of the solved jobs
}

func setupServe(w workload, seed uint64, smoke bool, tr *tracer) (runner, setupTimes, error) {
	var st setupTimes
	t := time.Now()
	r := &serveRunner{
		sched:   makeSchedule(w, seed, smoke),
		clients: runtime.NumCPU(),
		cold:    serveColdJobs[smokeIndex(smoke)],
		tr:      tr,
	}
	st.gen = time.Since(t)
	t = time.Now()
	if err := r.start(); err != nil {
		return nil, st, err
	}
	st.build = time.Since(t)
	return r, st, nil
}

// start brings up the server and its listener. With a tracer, jobs
// resolve to instrumented solvers parented to the request that
// submitted them; without, the server takes its production path.
func (r *serveRunner) start() error {
	cfg := serve.Config{}
	if r.tr != nil {
		cfg.Resolve = func(req serve.SolveRequest) (serve.Solvers, error) {
			s, err := serve.ResolveSolvers(req)
			if err != nil {
				return s, err
			}
			parent, _ := r.spanOf.Load(req.Seed)
			id, _ := parent.(int64)
			return serve.Solvers{
				Sub:   instrument(s.Sub, r.tr, "leaf", id),
				Merge: instrument(s.Merge, r.tr, "merge", id),
			}, nil
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	r.srv = srv
	r.httpSrv = &http.Server{Handler: srv.Handler()}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		_ = r.httpSrv.Serve(ln) // returns ErrServerClosed on close
	}()
	r.trans = &http.Transport{}
	r.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: r.trans}}
	return nil
}

func (r *serveRunner) close() {
	r.trans.CloseIdleConnections()
	r.httpSrv.Close() // also closes the listener
	<-r.served
	r.srv.Close()
}

// rep runs batch i (the schedule is the one instance).
func (r *serveRunner) rep(i, _ int) outcome { return r.batch(i, len(r.sched.slots), r.clients) }

// solveTimeout bounds one job; a job that hangs fails instead of
// stalling the run.
const solveTimeout = 60 * time.Second

// batch submits the first n slots of a batch from a closed loop of the
// given number of clients: each takes the next slot when its previous
// job has settled. Every answer is verified against its graph, and a
// repeat must return the assignment of the slot it repeats.
func (r *serveRunner) batch(batch, n, clients int) outcome {
	stats := batchStats{latency: make([]float64, n), cached: make([]bool, n)}
	digests := make([]string, n)
	ratios := make([]float64, n)
	var mu sync.Mutex
	var failures []string
	fail := func(i int, err error) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf("batch %d slot %d: %v", batch, i, err))
		mu.Unlock()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				events := 0
				t := time.Now()
				st, coalesced, err := r.submit(batch, i, func(serve.Event) { events++ })
				lat := time.Since(t).Seconds()
				spins, verr := checkJob(r.sched.graphs[r.sched.slots[i].graph], st, err)
				mu.Lock()
				stats.latency[i], stats.cached[i] = lat, st.Cached
				stats.events += events
				if coalesced {
					stats.coalesced++
				}
				if st.Result != nil && !st.Cached && !coalesced {
					for _, rep := range st.Result.Reports {
						stats.att.add(rep.Solver, rep.Attempts)
					}
				}
				var se *retry.StatusError
				if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
					stats.rejected++
				}
				mu.Unlock()
				if verr != nil {
					fail(i, verr)
					continue
				}
				digests[i] = digestSpins(spins)
				ratios[i] = st.Result.Value / r.sched.graphs[r.sched.slots[i].graph].TotalWeight()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	out := outcome{solves: n, failures: failures}
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		if first := r.sched.slots[i].first; digests[i] != digests[first] && digests[i] != "" && digests[first] != "" {
			out.failures = append(out.failures, fmt.Sprintf("batch %d slot %d: differs from slot %d it repeats", batch, i, first))
		}
		out.cutRatio += ratios[i] / float64(n)
		h.Write([]byte(digests[i]))
		if i == r.cold-1 {
			out.head = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	out.digest = fmt.Sprintf("%016x", h.Sum64())
	r.last = stats
	return out
}

// submit sends one slot through the HTTP client and follows it until
// it settles: the two steps of serve.Client.Solve, kept apart because
// only the submission's answer says whether the job coalesced. Under a
// tracer the round trip is a root span, and the job's solver spans hang
// under the first request that carried it.
func (r *serveRunner) submit(batch, i int, onEvent func(serve.Event)) (st serve.JobStatus, coalesced bool, err error) {
	req := r.sched.request(batch, i)
	ctx, cancel := context.WithTimeout(context.Background(), solveTimeout)
	defer cancel()
	if r.tr != nil {
		id := r.tr.beginSolve("serve.request", "serve", int64(batch*len(r.sched.slots)+i))
		r.spanOf.LoadOrStore(req.Seed, id)
		defer r.tr.end(id)
	}
	st, err = r.client.Submit(ctx, req)
	if err != nil || st.State == serve.JobDone || st.State == serve.JobFailed {
		return st, false, err
	}
	coalesced = st.Coalesced
	st, err = r.client.Follow(ctx, st.ID, onEvent)
	return st, coalesced, err
}

// checkJob verifies a settled job and returns its assignment.
func checkJob(g *graph.Graph, st serve.JobStatus, err error) ([]int8, error) {
	if err != nil {
		return nil, err
	}
	if st.State != serve.JobDone || st.Result == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	spins, err := serve.DecodeSpins(st.Result.Spins)
	if err != nil {
		return nil, err
	}
	return spins, verifyCut(g, spins, st.Result.Value)
}

// inProcess runs the batch through Server.Submit and Done, with no
// HTTP: per slot, the seconds from submission to the settled job.
func (r *serveRunner) inProcess(batch int) ([]float64, error) {
	lat := make([]float64, len(r.sched.slots))
	for i := range r.sched.slots {
		t := time.Now()
		st, err := r.srv.Submit(r.sched.request(batch, i))
		if err != nil {
			return nil, err
		}
		done, err := r.srv.Done(st.ID)
		if err != nil {
			return nil, err
		}
		<-done
		lat[i] = time.Since(t).Seconds()
	}
	return lat, nil
}

// bodyKB is the mean JSON size of a batch's submissions.
func (s schedule) bodyKB() float64 {
	total := 0
	for i := range s.slots {
		b, _ := json.Marshal(s.request(0, i)) // plain data: cannot fail
		total += len(b)
	}
	return float64(total) / float64(len(s.slots)) / 1024
}
