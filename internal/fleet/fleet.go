// Package fleet promotes the single qaoa2d daemon + RemoteSolver pair
// into a coordinator/worker fleet: a front door that routes each solve
// to one of several registered qaoa2d workers by rendezvous hashing of
// its fingerprint job id, sweeps every worker's result cache
// before routing (fingerprint keys are location-independent, so a
// result computed anywhere in the fleet answers a submission to the
// front door), health-checks workers over /healthz, and re-parks jobs
// off dead or draining workers — fetching the drain checkpoint from
// the old worker when its HTTP plane still answers and seeding it to
// the replacement, so a re-routed job resumes instead of recomputing.
//
// Correctness never depends on the hand-off: the runtime returns
// bit-identical results at any parallelism from any checkpoint prefix
// (including none), so a lost checkpoint costs recompute time only.
// That is what makes the fleet's failover safe to run against workers
// that die without warning.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"qaoa2/internal/retry"
	"qaoa2/internal/serve"
)

// WorkerState is a registered worker's health as seen by the
// coordinator's probe loop.
type WorkerState string

const (
	// WorkerHealthy workers accept new jobs.
	WorkerHealthy WorkerState = "healthy"
	// WorkerDraining workers are shutting down gracefully: they reject
	// new submissions but their HTTP plane still answers, so parked
	// checkpoints can be fetched for re-routing.
	WorkerDraining WorkerState = "draining"
	// WorkerDead workers failed their last probe or a route to them
	// failed; jobs route around them and their in-flight work restarts
	// elsewhere. The next probe that answers revives them.
	WorkerDead WorkerState = "dead"
)

// WorkerSpec registers one worker with the coordinator.
type WorkerSpec struct {
	// Name is the stable routing identity. Routing hashes the name,
	// not the URL, so a worker that moves (new port after a restart)
	// keeps its keys.
	Name string
	// URL is the worker's base URL, e.g. "http://127.0.0.1:8817".
	URL string
}

// WorkerStatus is one worker's externally visible state snapshot.
type WorkerStatus struct {
	Name    string      `json:"name"`
	URL     string      `json:"url"`
	State   WorkerState `json:"state"`
	LastErr string      `json:"lastError,omitempty"`
}

// Stats counts the coordinator's routing decisions.
type Stats struct {
	// Routed counts jobs submitted to a worker (first routes, not
	// failover resubmissions).
	Routed int
	// CacheHits counts submissions answered by some worker's result
	// cache without routing a solve.
	CacheHits int
	// Reparks counts failovers that salvaged a checkpoint from the old
	// worker and seeded it to the new one (the job resumed).
	Reparks int
	// Failovers counts re-routes in total, with or without a salvaged
	// checkpoint.
	Failovers int
}

// Config configures a Coordinator. A health probe and a cache sweep
// wait at most probeTimeout, and one job may consume 2×len(Workers)+1
// worker attempts across failovers.
type Config struct {
	// Workers is the fleet roster. At least one required.
	Workers []WorkerSpec
	// HealthInterval is the probe cadence (default 1s; negative
	// disables the probe loop — tests drive CheckNow directly).
	HealthInterval time.Duration
	// Retry shapes each worker client's unary retries and stream
	// reconnects. The zero value gets a small fleet default seeded
	// from Seed.
	Retry retry.Policy
	// Seed seeds retry jitter (fleet runs stay replayable).
	Seed uint64
}

// probeTimeout bounds one health probe and one cache sweep.
const probeTimeout = 2 * time.Second

// ErrNoWorkers reports that no live worker is available to route to.
var ErrNoWorkers = errors.New("fleet: no live worker available")

// worker is the coordinator's per-worker record. The clients and name
// are immutable after New; state/lastErr are guarded by mu.
type worker struct {
	name   string
	url    string
	client *serve.Client
	// once makes single attempts: a probe or sweep is one request and
	// one verdict.
	once *serve.Client

	mu      sync.Mutex
	state   WorkerState
	lastErr error
}

func (w *worker) setState(s WorkerState, err error) {
	w.mu.Lock()
	w.state, w.lastErr = s, err
	w.mu.Unlock()
}

func (w *worker) getState() WorkerState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// Coordinator is the fleet front door: routing, health, failover.
type Coordinator struct {
	cfg     Config
	names   []string // the roster, in Config order
	workers map[string]*worker
	// maxRoutes bounds how many worker attempts one job may consume
	// across failovers.
	maxRoutes int

	statsMu sync.Mutex
	stats   Stats

	// routes remembers which worker each front-door-submitted job id
	// went to, so status and event-stream requests proxy to the right
	// worker without sweeping the fleet. Bounded FIFO. A settled job's
	// entry keeps only the worker name.
	routesMu   sync.Mutex
	routes     map[string]routeEntry
	routeOrder []string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// routeEntry remembers enough about a front-door submission to
// re-route it if its worker dies mid-stream: the worker, and the
// request until the front door sees the job settle (nil after, when
// nothing will re-route it and its graph would only take memory).
type routeEntry struct {
	worker string
	req    *serve.SolveRequest
}

// maxRoutesRemembered bounds the front door's id→worker memory; the
// oldest entries fall off and their streams fall back to a fleet
// sweep.
const maxRoutesRemembered = 4096

// New registers the workers, starts the health loop, and returns the
// coordinator. Workers start Healthy and are corrected by the first
// probe round.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = retry.Policy{
			MaxAttempts: 4,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
			Seed:        cfg.Seed,
		}
	}
	c := &Coordinator{
		cfg:       cfg,
		workers:   make(map[string]*worker, len(cfg.Workers)),
		maxRoutes: 2*len(cfg.Workers) + 1,
		routes:    make(map[string]routeEntry),
		stop:      make(chan struct{}),
	}
	for _, spec := range cfg.Workers {
		if spec.Name == "" || spec.URL == "" {
			return nil, fmt.Errorf("fleet: worker needs name and url, got %+v", spec)
		}
		if _, dup := c.workers[spec.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate worker name %q", spec.Name)
		}
		c.workers[spec.Name] = &worker{
			name:   spec.Name,
			url:    spec.URL,
			client: &serve.Client{Base: spec.URL, Retry: cfg.Retry},
			once:   &serve.Client{Base: spec.URL},
			state:  WorkerHealthy,
		}
		c.names = append(c.names, spec.Name)
	}
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// Close stops the health loop. Worker daemons are not touched — the
// coordinator never owns their lifecycle.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Stats snapshots the routing counters.
func (c *Coordinator) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// Workers snapshots every worker's health, sorted by name.
func (c *Coordinator) Workers() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		w.mu.Lock()
		ws := WorkerStatus{Name: w.name, URL: w.url, State: w.state}
		if w.lastErr != nil {
			ws.LastErr = w.lastErr.Error()
		}
		w.mu.Unlock()
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// healthLoop probes all workers every HealthInterval until Close.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	c.CheckNow()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CheckNow()
		}
	}
}

// CheckNow probes every worker once, concurrently, and updates their
// states. Exported so tests (and the front door's /healthz) can force
// a synchronous refresh instead of waiting out the interval.
func (c *Coordinator) CheckNow() {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
}

// probe is one health check: a single /healthz request bounded by
// probeTimeout, and its answer is the worker's state. A probe failure
// marks the worker dead immediately — routing around a live-but-flaky
// worker is cheap (determinism makes re-routed work bit-identical),
// while routing to a dead one costs a full client retry budget per
// job. A dead worker is asked again every HealthInterval, and the
// first answer revives it.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	body, err := w.once.Health(ctx)
	if err != nil {
		w.setState(WorkerDead, err)
		return
	}
	if body["status"] == "draining" {
		w.setState(WorkerDraining, nil)
		return
	}
	w.setState(WorkerHealthy, nil)
}

// hash64 is FNV-1a, the same family the checkpoint fingerprints use.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// preference orders the members for a key by rendezvous hashing:
// each member scores a mixed hash of (name, key), the highest score
// is the key's home worker and the rest are its failover order, ties
// broken by name. The list is a pure function of (key, membership),
// so every coordinator instance, and every test, derives the same
// route; dropping a member moves only the keys it was home to.
func preference(members []string, key string) []string {
	type scored struct {
		name  string
		score uint64
	}
	k := hash64(key)
	all := make([]scored, len(members))
	for i, n := range members {
		// SplitMix64's finalizer: FNV alone leaves names that differ
		// in one byte with correlated scores.
		z := hash64(n) ^ k
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		all[i] = scored{n, z ^ (z >> 31)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].name < all[j].name
	})
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.name
	}
	return out
}

// Route reports which worker the job id routes to right now: the
// first healthy worker in its preference order, skipping the workers
// named in skip (the route loop's tried set). Draining workers take
// no new work; they still donate their checkpoints.
func (c *Coordinator) Route(id string, skip ...string) (string, error) {
	for _, name := range preference(c.names, id) {
		if !slices.Contains(skip, name) && c.workers[name].getState() == WorkerHealthy {
			return name, nil
		}
	}
	return "", ErrNoWorkers
}

// CachePeek sweeps the fleet's result caches: it asks every non-dead
// worker whether it already holds a completed result for the job id,
// and the first hit wins. Fingerprint ids are location-independent,
// so a hit from ANY worker is the answer to THIS submission. A sweep
// is advisory: a worker that fails to answer counts as a miss, and the
// error is always nil.
func (c *Coordinator) CachePeek(ctx context.Context, id string) (serve.JobStatus, bool, error) {
	sctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	type hit struct {
		st serve.JobStatus
		ok bool
	}
	results := make(chan hit, len(c.workers))
	n := 0
	for _, w := range c.workers {
		if w.getState() == WorkerDead {
			continue
		}
		n++
		go func(w *worker) {
			// Single attempt per worker: a sweep is advisory, the solve
			// path is the fallback.
			st, ok, err := w.once.CachePeek(sctx, id)
			results <- hit{st, ok && err == nil}
		}(w)
	}
	for i := 0; i < n; i++ {
		h := <-results
		if h.ok {
			cancel()
			return h.st, true, nil
		}
	}
	return serve.JobStatus{}, false, nil
}

// Submit routes one request to a worker without waiting for the
// result (the front door's POST /v1/solve): a result computed anywhere
// in the fleet answers the job, and only a miss goes to the route
// loop. The returned status is the answering worker's.
func (c *Coordinator) Submit(ctx context.Context, req serve.SolveRequest) (serve.JobStatus, error) {
	id, err := req.JobKey()
	if err != nil {
		return serve.JobStatus{}, refused{err}
	}
	if st, ok, _ := c.CachePeek(ctx, id); ok {
		c.count(func(s *Stats) { s.CacheHits++ })
		return st, nil
	}
	c.count(func(s *Stats) { s.Routed++ })
	return c.route(ctx, id, req, nil, nil)
}

// count updates the routing counters under their lock.
func (c *Coordinator) count(f func(*Stats)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// dedupForwarder wraps onEvent with the cross-worker exactly-once
// guarantee: duplicate task events (a replacement worker replaying
// checkpointed work) are dropped, survivors are renumbered into one
// gap-free sequence.
func (c *Coordinator) dedupForwarder(onEvent func(serve.Event)) func(serve.Event) {
	delivered := make(map[string]bool)
	seq := 0
	return func(ev serve.Event) {
		key := ev.Kind + "|" + ev.Task
		if delivered[key] {
			return
		}
		delivered[key] = true
		seq++
		ev.Seq = seq
		if onEvent != nil {
			onEvent(ev)
		}
	}
}

// route is the one failover loop, behind Submit and Follow.
// Each route runs one step on one worker: the first follows the job
// on held, the live worker route memory names, when there is one;
// every other step goes to the next healthy worker the job has not
// tried, in its preference order, and submits the request (forward
// nil) or submits and follows it to a settled status.
//
// A worker's own 4xx answer (see rejected) is the request's fault:
// every worker would give it, so it comes back unchanged and blames
// no worker. Any other failure fails over. The checkpoint is salvaged while the old
// worker's HTTP plane still answers (a draining worker's does) and
// seeded to the next, so the job resumes instead of recomputing; an
// error, rather than a parked status, also marks the worker dead.
func (c *Coordinator) route(ctx context.Context, id string, req serve.SolveRequest, held *worker, forward func(serve.Event)) (serve.JobStatus, error) {
	var ckpt []byte
	var tried []string
	var lastErr error
	for n := 0; n < c.maxRoutes; n++ {
		w := held
		if n > 0 || w == nil {
			name, err := c.Route(id, tried...)
			if err != nil && len(tried) > 0 {
				// Every worker tried or down: refresh health and start a
				// second pass — a drained worker may have restarted.
				tried = nil
				c.CheckNow()
				name, err = c.Route(id)
			}
			if err != nil {
				if lastErr != nil {
					err = fmt.Errorf("%w (last worker error: %v)", err, lastErr)
				}
				return serve.JobStatus{}, err
			}
			w = c.workers[name]
		}
		tried = append(tried, w.name)
		if n > 0 {
			c.count(func(s *Stats) {
				s.Failovers++
				if ckpt != nil {
					s.Reparks++
				}
			})
		}
		if ckpt != nil {
			// Best-effort: a rejected or lost seed only costs recompute.
			w.client.SeedCheckpoint(ctx, id, ckpt)
		}
		c.remember(id, w.name, &req)
		var st serve.JobStatus
		var err error
		switch {
		case n == 0 && held != nil:
			st, err = w.client.Follow(ctx, id, forward)
		case forward == nil:
			st, err = w.client.Submit(ctx, req)
		default:
			st, err = w.client.Solve(ctx, req, forward)
		}
		if err == nil && (forward == nil || st.State == serve.JobDone || st.State == serve.JobFailed) {
			// JobFailed is a deterministic solver error: every worker
			// would fail identically, so surface it instead of burning
			// the fleet on re-runs.
			c.settle(id, st)
			return st, nil
		}
		if ctx.Err() != nil {
			return serve.JobStatus{}, ctx.Err()
		}
		if rejected(err) {
			return serve.JobStatus{}, err
		}
		lastErr = err
		if data, ok, ferr := w.client.FetchCheckpoint(ctx, id); ok && ferr == nil {
			ckpt = data
		}
		if err != nil {
			w.setState(WorkerDead, err)
		}
	}
	return serve.JobStatus{}, fmt.Errorf("fleet: job %s exhausted %d routes: %w", id, c.maxRoutes, lastErr)
}

// rejected reports a worker's own 4xx answer: a bad graph, an unknown
// solver, an instance over the size bounds. 429 (queue full) is the
// worker's state, not the request's, and 404 on a job the worker took
// means the worker lost it; both fail over, as every transport error
// does.
func rejected(err error) bool {
	var se *retry.StatusError
	return errors.As(err, &se) && se.Code >= 400 && se.Code < 500 &&
		se.Code != http.StatusTooManyRequests && se.Code != http.StatusNotFound
}

// remember records a front-door routing decision for later status and
// stream proxying, evicting oldest-first past the bound.
func (c *Coordinator) remember(id, workerName string, req *serve.SolveRequest) {
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	if _, known := c.routes[id]; !known {
		c.routeOrder = append(c.routeOrder, id)
	}
	c.routes[id] = routeEntry{worker: workerName, req: req}
	for len(c.routeOrder) > maxRoutesRemembered {
		delete(c.routes, c.routeOrder[0])
		c.routeOrder = c.routeOrder[1:]
	}
}

// settle drops the request of a job seen done or failed from its
// route entry, keeping the worker name for status proxying.
func (c *Coordinator) settle(id string, st serve.JobStatus) {
	if st.State != serve.JobDone && st.State != serve.JobFailed {
		return
	}
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	if e, ok := c.routes[id]; ok {
		c.routes[id] = routeEntry{worker: e.worker}
	}
}

func (c *Coordinator) lookupRoute(id string) (routeEntry, bool) {
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	e, ok := c.routes[id]
	return e, ok
}

// locate finds a live worker that knows job id: the remembered worker
// first, then every worker in the job's preference order (another
// coordinator may have routed it, or the route memory evicted it).
func (c *Coordinator) locate(ctx context.Context, id string) (*worker, serve.JobStatus, error) {
	names := preference(c.names, id)
	if e, ok := c.lookupRoute(id); ok {
		names = append([]string{e.worker}, names...)
	}
	for _, name := range names {
		w := c.workers[name]
		if w.getState() == WorkerDead {
			continue
		}
		if st, err := w.once.Job(ctx, id); err == nil {
			return w, st, nil
		}
	}
	return nil, serve.JobStatus{}, serve.ErrNotFound
}

// Job proxies one job's status from the worker that holds it.
func (c *Coordinator) Job(ctx context.Context, id string) (serve.JobStatus, error) {
	_, st, err := c.locate(ctx, id)
	c.settle(id, st)
	return st, err
}

// Follow proxies one job's event stream through the front door:
// the worker's NDJSON stream passes through with Seq preserved. A job
// this coordinator routed goes through the route loop, so if its
// worker dies or drains mid-stream the job re-routes (checkpoint
// salvage included) and the subscriber's sequence continues gap-free,
// duplicates dropped. A job routed elsewhere, or already seen settled,
// is followed on whichever worker holds it.
func (c *Coordinator) Follow(ctx context.Context, id string, onEvent func(serve.Event)) (serve.JobStatus, error) {
	forward := c.dedupForwarder(onEvent)
	if e, ok := c.lookupRoute(id); ok && e.req != nil {
		held := c.workers[e.worker]
		if held.getState() == WorkerDead {
			held = nil
		}
		return c.route(ctx, id, *e.req, held, forward)
	}
	w, _, err := c.locate(ctx, id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	return w.client.Follow(ctx, id, forward)
}

// describeWorkers renders the roster compactly for error messages and
// the front door's health body.
func describeWorkers(ws []WorkerStatus) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprintf("%s=%s", w.Name, w.State)
	}
	return strings.Join(parts, ",")
}
