// Command qaoa2d is the long-running QAOA² solve daemon: it serves
// the internal/serve HTTP API — bounded priority job queue over the
// task-graph runtime, graph-fingerprint result cache with duplicate
// coalescing, NDJSON progress streaming — and drains gracefully on
// SIGTERM/SIGINT: running jobs are interrupted into their checkpoints
// and a daemon restarted on the same -dir resumes them bit-identically.
//
// Usage:
//
//	qaoa2d -addr 127.0.0.1:8817 -dir /var/lib/qaoa2d
//	curl -s localhost:8817/v1/solve -d '{"graph":"3 2\n0 1 1\n1 2 1\n","solver":"anneal"}'
//	curl -s localhost:8817/v1/jobs/<id>/events   # NDJSON stream
//
// The graph is one string in the edge-list text form graph.Read reads
// ("n m", then one "i j w" line per edge); the object form
// {"nodes":3,"edges":[{"i":0,"j":1,"w":1},...]} of earlier clients is
// still read.
//
// With -front the same binary becomes a fleet front door instead of a
// worker: it routes submissions to the named workers by result
// fingerprint, sweeps their caches, health-checks them, and re-parks
// jobs off dead or draining workers. The wire surface is identical,
// so clients point at either by URL alone:
//
//	qaoa2d -front "w0=http://10.0.0.1:8817,w1=http://10.0.0.2:8817"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qaoa2/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its exits and streams made testable: usage errors
// return 2, operational failures 1, a graceful drain 0. When ready is
// non-nil it receives the bound listen address once the daemon
// accepts connections.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("qaoa2d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8817", "HTTP listen address")
		dir     = fs.String("dir", "", "state directory for checkpoints and the job table (empty = in-memory only, no resume)")
		par     = fs.Int("parallelism", 0, "global worker-slot cap across running jobs (0 = GOMAXPROCS)")
		jobPar  = fs.Int("job-parallelism", 0, "per-job worker budget clamp (0 = the global cap)")
		queue   = fs.Int("queue", 64, "bound on waiting jobs; submissions beyond it get HTTP 429")
		drainGP = fs.Duration("drain-grace", 30*time.Second, "drain deadline: HTTP shutdown grace, and the Retry-After horizon advertised to parked submitters")
		front   = fs.String("front", "", "run as a fleet front door over `name=url,...` workers instead of solving locally")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "qaoa2d: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *front != "" {
		return runFront(*front, *addr, *drainGP, stdout, stderr, ready)
	}

	srv, err := serve.New(serve.Config{
		GlobalParallelism: *par,
		MaxJobParallelism: *jobPar,
		QueueLimit:        *queue,
		StateDir:          *dir,
		DrainGrace:        *drainGP,
	})
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2d: %v\n", err)
		return 1
	}

	return serveLoop(*addr, *drainGP, stdout, stderr, ready, loop{
		handler:   srv.Handler(),
		listening: func(a net.Addr) string { return fmt.Sprintf("listening on %s (%s)", a, srv) },
		stopping:  "draining (running jobs checkpoint and park)",
		stopped:   "drained, state persisted; restart to resume parked jobs",
		drain:     srv.Drain,
		close:     srv.Close,
	})
}

// loop is what serveLoop serves and says: the solve daemon and the
// front door differ in their lines and in the daemon's drain alone.
type loop struct {
	handler http.Handler
	// listening announces the bound address; stopping follows the
	// signal's name, stopped ends a signal-driven shutdown.
	listening         func(net.Addr) string
	stopping, stopped string
	// drain, when set, runs on the signal before the HTTP shutdown;
	// close runs once serving ends.
	drain, close func()
}

// serveLoop is qaoa2d's one serve sequence: trap SIGTERM/SIGINT, listen
// on addr, announce the bound address (on stdout, and to ready when it
// is non-nil), serve until a signal, then drain and shut HTTP down
// within grace. It returns 0 after a signal-driven shutdown and 1 on
// failure.
func serveLoop(addr string, grace time.Duration, stdout, stderr io.Writer, ready chan<- string, l loop) int {
	// Trap SIGTERM/SIGINT before announcing readiness so a signal
	// arriving at any point after `ready` fires drains instead of
	// killing the process.
	httpSrv := &http.Server{Handler: l.handler}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2d: %v\n", err)
		l.close()
		return 1
	}
	fmt.Fprintf(stdout, "qaoa2d: %s\n", l.listening(ln.Addr()))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case got := <-sig:
			fmt.Fprintf(stdout, "qaoa2d: %v: %s\n", got, l.stopping)
			if l.drain != nil {
				l.drain()
			}
			ctx, cancel := context.WithTimeout(context.Background(), grace)
			defer cancel()
			httpSrv.Shutdown(ctx)
		case <-stop:
		}
	}()

	err = httpSrv.Serve(ln)
	l.close()
	if err == http.ErrServerClosed {
		fmt.Fprintln(stdout, "qaoa2d: "+l.stopped)
		return 0
	}
	fmt.Fprintf(stderr, "qaoa2d: %v\n", err)
	return 1
}
