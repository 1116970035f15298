package fleet

import (
	"context"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"qaoa2/internal/serve"
)

// TestSoakKillOneWorker is the fleet soak: a batch of concurrent jobs
// across 3 workers, with one worker killed once an eighth of the batch
// has settled, so the kill always strands in-flight work. Every job
// must complete bit-identical to the single-daemon reference, the kill
// must draw at least one failover or re-park, and the health plane
// must see exactly one dead worker. The test logs p50/p90/p99
// submit-to-done latency and the routing counters. QAOA2_SOAK_JOBS
// scales the batch (default 40).
func TestSoakKillOneWorker(t *testing.T) {
	jobs := 40
	if v := os.Getenv("QAOA2_SOAK_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad QAOA2_SOAK_JOBS %q", v)
		}
		jobs = n
	}

	workers, c := startFleet(t, 3, slowResolve(3))
	var reqs []serve.SolveRequest
	for i := 0; i < jobs; i++ {
		// Three sizes so runtimes vary; seeds make every job distinct.
		n := 16 + 8*(i%3)
		reqs = append(reqs, fleetReq(n, 8, uint64(1000+i)))
	}
	want := refSolve(t, slowResolve(0), reqs)

	// Victim: the home worker of the first (longest-running-class) job,
	// so the kill is guaranteed to strand routed work.
	id0, err := reqs[0].JobKey()
	if err != nil {
		t.Fatal(err)
	}
	home, err := c.Route(id0)
	if err != nil {
		t.Fatal(err)
	}
	var victim *testWorker
	for _, w := range workers {
		if w.spec.Name == home {
			victim = w
		}
	}

	ctx := context.Background()
	type outcome struct {
		st      serve.JobStatus
		err     error
		latency time.Duration
	}
	outs := make([]outcome, len(reqs))
	settled := make(chan struct{}, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req serve.SolveRequest) {
			defer wg.Done()
			start := time.Now()
			st, err := solve(ctx, c, req, nil)
			outs[i] = outcome{st: st, err: err, latency: time.Since(start)}
			settled <- struct{}{}
		}(i, req)
	}

	// Pull the plug once an eighth of the batch has settled: the rest
	// is then in flight across all workers.
	for i := 0; i < (jobs+7)/8; i++ {
		<-settled
	}
	victim.kill()
	wg.Wait()

	var lats []time.Duration
	for i := range reqs {
		o := outs[i]
		if o.err != nil {
			t.Fatalf("soak job %d failed: %v", i, o.err)
		}
		if o.st.State != serve.JobDone || o.st.Result == nil {
			t.Fatalf("soak job %d: %+v", i, o.st)
		}
		if o.st.Result.Spins != want[i].Result.Spins || o.st.Result.Value != want[i].Result.Value {
			t.Fatalf("soak job %d diverged from single-daemon reference", i)
		}
		lats = append(lats, o.latency)
	}

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	p := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	stats := c.Stats()
	t.Logf("soak: %d jobs, p50=%v p90=%v p99=%v, routed=%d cacheHits=%d failovers=%d reparks=%d",
		len(lats), p(0.50), p(0.90), p(0.99), stats.Routed, stats.CacheHits, stats.Failovers, stats.Reparks)
	if stats.Failovers+stats.Reparks == 0 {
		t.Fatalf("a worker was killed mid-soak but no job failed over or re-parked: the kill did not exercise recovery (%+v)", stats)
	}

	// The kill must have been observed by the fleet, not dodged.
	c.CheckNow()
	dead := 0
	for _, w := range c.Workers() {
		if w.State == WorkerDead {
			dead++
		}
	}
	if dead != 1 {
		t.Fatalf("expected exactly one dead worker, roster: %+v", c.Workers())
	}
}
