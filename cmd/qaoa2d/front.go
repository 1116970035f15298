package main

import (
	"fmt"
	"io"
	"net"
	"strings"
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

	return serveLoop(addr, grace, stdout, stderr, ready, loop{
		handler:   c.Handler(),
		listening: func(a net.Addr) string { return fmt.Sprintf("front door on %s routing %d workers", a, len(specs)) },
		stopping:  "front door shutting down (workers keep running)",
		stopped:   "front door stopped; workers and their state are untouched",
		close:     c.Close,
	})
}
