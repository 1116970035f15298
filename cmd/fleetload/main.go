// Command fleetload is the fleet soak harness: it boots an in-process
// fleet (N qaoa2d workers behind one coordinator), sustains a batch of
// concurrent solve jobs through the front door, optionally kills one
// worker mid-soak, verifies every result bit-identical against a
// single-daemon reference, and reports submit-to-done latency
// percentiles as machine-readable bench JSON. It exits 1 when a job
// diverged from the reference or a kill drew no failover or re-park:
// it is the fleet's CI gate.
//
// Usage:
//
//	fleetload                          # 3 workers, 200 jobs, kill one mid-soak
//	fleetload -workers 5 -jobs 500
//	fleetload -kill=false              # steady-state baseline
//	fleetload -json fleet.json         # write the bench record to a file
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"qaoa2/internal/fleet"
	"qaoa2/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the bench JSON schema: one soak run, one record.
type report struct {
	Schema     string  `json:"schema"`
	Workers    int     `json:"workers"`
	Jobs       int     `json:"jobs"`
	Killed     bool    `json:"killed"`
	Seed       uint64  `json:"seed"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	WallMs     float64 `json:"wall_ms"`
	Failovers  int     `json:"failovers"`
	Reparks    int     `json:"reparks"`
	CacheHits  int     `json:"cache_hits"`
	Verified   bool    `json:"verified"`
	Mismatches int     `json:"mismatches"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers  = fs.Int("workers", 3, "in-process workers behind the front door")
		jobs     = fs.Int("jobs", 200, "concurrent solve jobs to sustain")
		kill     = fs.Bool("kill", true, "kill one worker mid-soak (torn connections, refused dials)")
		seed     = fs.Uint64("seed", 1, "base seed; job i solves with seed+i")
		verify   = fs.Bool("verify", true, "recompute every job on a single daemon and require bit-identity")
		par      = fs.Int("parallelism", 2, "per-worker global parallelism")
		jsonPath = fs.String("json", "", "write the bench JSON record here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *workers < 1 || *jobs < 1 {
		fmt.Fprintln(stderr, "fleetload: bad arguments")
		fs.Usage()
		return 2
	}
	if *kill && *workers < 2 {
		fmt.Fprintln(stderr, "fleetload: -kill needs at least 2 workers")
		return 2
	}

	rep, err := soak(*workers, *jobs, *kill, *verify, *par, *seed, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fleetload: %v\n", err)
		return 1
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	out = append(out, '\n')
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintf(stderr, "fleetload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "fleetload: wrote %s\n", *jsonPath)
	} else {
		stdout.Write(out)
	}
	if err := rep.verdict(); err != nil {
		fmt.Fprintf(stderr, "fleetload: %v\n", err)
		return 1
	}
	return 0
}

// verdict is the soak's pass/fail: every routed result bit-identical
// to the single-daemon reference, and a kill mid-soak answered by at
// least one failover or re-park — otherwise the kill leg never
// exercised recovery.
func (rep report) verdict() error {
	if rep.Mismatches > 0 {
		return fmt.Errorf("%d jobs diverged from the single-daemon reference", rep.Mismatches)
	}
	if rep.Killed && rep.Failovers == 0 && rep.Reparks == 0 {
		return fmt.Errorf("a worker was killed mid-soak but the coordinator recorded no failovers or re-parks: the kill leg did not exercise recovery")
	}
	return nil
}

// worker is one in-process qaoa2d behind a real TCP listener.
type worker struct {
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
}

func (w *worker) kill() {
	// Torn connections + closed listener: the fleet sees a crashed
	// process. w.http.Close also closes the listener.
	w.http.Close()
}

// loadReq builds job i: ring-plus-chords instances in three size
// classes so runtimes vary across the batch.
func loadReq(i int, seed uint64) serve.SolveRequest {
	n := 16 + 8*(i%3)
	spec := serve.GraphSpec{Nodes: n}
	for v := 0; v < n; v++ {
		spec.Edges = append(spec.Edges, serve.EdgeSpec{I: v, J: (v + 1) % n, W: 1})
		if j := (v + 7) % n; j != v {
			lo, hi := v, j
			if lo > hi {
				lo, hi = hi, lo
			}
			spec.Edges = append(spec.Edges, serve.EdgeSpec{I: lo, J: hi, W: 0.5})
		}
	}
	return serve.SolveRequest{Graph: spec, MaxQubits: 8, Solver: "anneal", Merge: "anneal", Seed: seed + uint64(i)}
}

func soak(nWorkers, nJobs int, kill, verify bool, par int, seed uint64, stderr io.Writer) (report, error) {
	rep := report{Schema: "qaoa2-fleetload/v1", Workers: nWorkers, Jobs: nJobs, Killed: kill, Seed: seed, Verified: verify}

	var specs []fleet.WorkerSpec
	var ws []*worker
	defer func() {
		for _, w := range ws {
			w.http.Close()
			w.srv.Close()
		}
	}()
	for i := 0; i < nWorkers; i++ {
		dir, err := os.MkdirTemp("", "fleetload-*")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		srv, err := serve.New(serve.Config{
			GlobalParallelism: par,
			QueueLimit:        nJobs + 8, // the soak floods; queue-full 429s are not the subject here
			StateDir:          dir,
		})
		if err != nil {
			return rep, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return rep, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		w := &worker{srv: srv, http: hs, ln: ln}
		ws = append(ws, w)
		specs = append(specs, fleet.WorkerSpec{
			Name: fmt.Sprintf("w%d", i),
			URL:  "http://" + ln.Addr().String(),
		})
	}

	c, err := fleet.New(fleet.Config{Workers: specs, HealthInterval: 100 * time.Millisecond, Seed: seed})
	if err != nil {
		return rep, err
	}
	defer c.Close()

	reqs := make([]serve.SolveRequest, nJobs)
	for i := range reqs {
		reqs[i] = loadReq(i, seed)
	}

	// Victim: home worker of job 0, so the kill strands routed work.
	victim := -1
	if kill {
		id, err := reqs[0].JobKey()
		if err != nil {
			return rep, err
		}
		home, err := c.Route(id)
		if err != nil {
			return rep, err
		}
		for i, s := range specs {
			if s.Name == home {
				victim = i
			}
		}
	}

	ctx := context.Background()
	type outcome struct {
		st      serve.JobStatus
		err     error
		latency time.Duration
	}
	outs := make([]outcome, nJobs)
	done := make(chan int, nJobs)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			st, err := c.Solve(ctx, reqs[i], nil)
			outs[i] = outcome{st: st, err: err, latency: time.Since(t0)}
			done <- i
		}(i)
	}
	if victim >= 0 {
		// Pull the plug mid-soak by construction: once an eighth of the
		// batch has finished, the rest is in flight across all workers.
		finished := 0
		for finished < (nJobs+7)/8 {
			<-done
			finished++
		}
		fmt.Fprintf(stderr, "fleetload: killing %s mid-soak (%d/%d jobs done)\n",
			specs[victim].Name, finished, nJobs)
		ws[victim].kill()
	}
	wg.Wait()
	rep.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6

	var lats []time.Duration
	for i, o := range outs {
		if o.err != nil {
			return rep, fmt.Errorf("job %d: %w", i, o.err)
		}
		if o.st.State != serve.JobDone || o.st.Result == nil {
			return rep, fmt.Errorf("job %d settled as %s (%s)", i, o.st.State, o.st.Error)
		}
		lats = append(lats, o.latency)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(q float64) float64 {
		return float64(lats[int(q*float64(len(lats)-1))].Nanoseconds()) / 1e6
	}
	rep.P50Ms, rep.P90Ms, rep.P99Ms = pct(0.50), pct(0.90), pct(0.99)
	stats := c.Stats()
	rep.Failovers, rep.Reparks, rep.CacheHits = stats.Failovers, stats.Reparks, stats.CacheHits

	if verify {
		ref, err := serve.New(serve.Config{GlobalParallelism: par})
		if err != nil {
			return rep, err
		}
		defer ref.Close()
		for i, req := range reqs {
			st, err := ref.Submit(req)
			if err != nil {
				return rep, err
			}
			done, err := ref.Done(st.ID)
			if err != nil {
				return rep, err
			}
			<-done
			fin, err := ref.Job(st.ID)
			if err != nil {
				return rep, err
			}
			if fin.Result == nil ||
				fin.Result.Spins != outs[i].st.Result.Spins ||
				fin.Result.Value != outs[i].st.Result.Value {
				rep.Mismatches++
				fmt.Fprintf(stderr, "fleetload: job %d diverged from reference\n", i)
			}
		}
	}
	return rep, nil
}
