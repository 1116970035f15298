package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qaoa2/internal/fleet"
)

// parseWorkers turns "-front w0=http://host:port,w1=..." into worker
// specs. Names matter: routing hashes them, so a worker restarted
// under the same name at a new URL keeps its keys (and its
// checkpoints stay warm).
func parseWorkers(s string) ([]fleet.WorkerSpec, error) {
	var specs []fleet.WorkerSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad worker %q (want name=url)", part)
		}
		specs = append(specs, fleet.WorkerSpec{Name: name, URL: strings.TrimRight(url, "/")})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no workers in %q", s)
	}
	return specs, nil
}

// runFront serves the fleet coordinator on addr. It shares qaoa2d's
// exit conventions: 0 on a signal-driven shutdown, 1 on operational
// failure, 2 on usage errors.
func runFront(workerList, addr string, grace time.Duration, stdout, stderr io.Writer, ready chan<- string) int {
	specs, err := parseWorkers(workerList)
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2d: -front: %v\n", err)
		return 2
	}
	c, err := fleet.New(fleet.Config{Workers: specs})
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2d: %v\n", err)
		return 1
	}

	httpSrv := &http.Server{Handler: c.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2d: %v\n", err)
		c.Close()
		return 1
	}
	fmt.Fprintf(stdout, "qaoa2d: front door on %s routing %d workers\n", ln.Addr(), len(specs))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case got := <-sig:
			fmt.Fprintf(stdout, "qaoa2d: %v: front door shutting down (workers keep running)\n", got)
			ctx, cancel := context.WithTimeout(context.Background(), grace)
			defer cancel()
			httpSrv.Shutdown(ctx)
		case <-stop:
		}
	}()

	err = httpSrv.Serve(ln)
	c.Close()
	if err == http.ErrServerClosed {
		fmt.Fprintln(stdout, "qaoa2d: front door stopped; workers and their state are untouched")
		return 0
	}
	fmt.Fprintf(stderr, "qaoa2d: %v\n", err)
	return 1
}
