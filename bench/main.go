// Command bench is the repository's system benchmark of record: four
// solve workloads (leaf-heavy, merge-heavy, dag-checkpoint, serve-mix)
// measured end to end, and a traced pass that attributes the time to
// layers from outside the program. BENCHMARK.json at the repository
// root describes the contract; README.md in this directory explains the
// metrics and how to read them.
//
// The command is an orchestrator: every measured phase runs in a child
// process of this executable, so that thread count, cold state and
// tracing belong to the phase. Timed phases run with GOMAXPROCS=1 and
// Parallelism 1.
//
//	go run -C bench . -workload all -seed 1
//	go run -C bench . -aa
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "all", "leaf-heavy, merge-heavy, dag-checkpoint, serve-mix, or all")
		seed    = flag.Uint64("seed", 1, "seed the instances are generated from")
		seconds = flag.Int("seconds", baseSeconds, "run length the repetition counts are scaled to")
		trace   = flag.Int("trace", traceBoth, "0: end-to-end metrics; 1: per-layer metrics from the traced pass; 2: both")
		aa      = flag.Bool("aa", false, "run the suite twice, alternating, and compare the two sets against the bounds")
		smoke   = flag.Bool("smoke", false, "tiny instances and few repetitions (tests)")
		phase   = flag.String("phase", "", "internal: run one phase as a child process")
		reps    = flag.Int("reps", 0, "internal: repetitions of the child phase")
		slices  = flag.Int("slices", 0, "internal: slices of the child's steady phase")
	)
	flag.Parse()

	if *phase != "" {
		w, err := findWorkload(*name)
		if err == nil {
			err = childMain(phaseConfig{phase: *phase, w: w, seed: *seed, smoke: *smoke, reps: *reps, slices: *slices}, os.Stdin, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	// Children are killed with the context: on a signal, and before the
	// 180 s a run may take.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ok, err := run(ctx, os.Stdout, *name, *seed, *seconds, *trace, *aa, *smoke, spawnProcess)
	os.RemoveAll(tempRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runTimeout bounds one workload's run: under the 180 s a run may take.
const runTimeout = 170 * time.Second

// run measures the named workload (or all of them) and writes the
// tables and result lines to out. It reports whether every result was
// correct.
func run(ctx context.Context, out io.Writer, name string, seed uint64, seconds, trace int, aa, smoke bool, spawn spawnFunc) (bool, error) {
	if seconds < 1 || trace < traceOff || trace > traceBoth {
		return false, fmt.Errorf("-seconds must be at least 1 and -trace one of 0, 1, 2")
	}
	selected := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return false, err
		}
		selected = []workload{w}
	}
	printMachine(out)
	if aa {
		return runAA(ctx, out, selected, seed, seconds, smoke, spawn)
	}
	ok := true
	for _, w := range selected {
		rep, err := runBounded(ctx, runConfig{w: w, seed: seed, seconds: seconds, trace: trace, smoke: smoke, spawn: spawn})
		if err != nil {
			return false, err
		}
		rep.print(out, trace)
		line, _ := json.Marshal(rep.line(trace)) // plain data: cannot fail
		fmt.Fprintf(out, "%s\n", line)
		ok = ok && rep.failed == 0
	}
	return ok, nil
}
