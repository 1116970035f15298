package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"

	"qaoa2/internal/qsim"
)

// runAA measures the same code twice, set A and set B, alternating
// workload by workload (A1 B1 A2 B2 ...) so that slow drift of the host
// lands on both sets, and holds every end-to-end metric's difference
// against its bound: a benchmark whose own two halves disagree by more
// than the bound cannot gate a change with it.
func runAA(ctx context.Context, out io.Writer, selected []workload, seed uint64, seconds int, smoke bool, spawn spawnFunc) (bool, error) {
	ok := true
	fmt.Fprintf(out, "\nA/A: two sets of runs of the same code, seed %d\n", seed)
	fmt.Fprintf(out, "| workload | metric | A | B | rel. diff | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range selected {
		var sets [2]*report
		for i := range sets {
			rep, err := runBounded(ctx, runConfig{w: w, seed: seed, seconds: seconds, trace: traceOff, smoke: smoke, spawn: spawn})
			if err != nil {
				return false, err
			}
			for _, f := range rep.failures {
				fmt.Fprintf(out, "FAILED %s\n", f)
			}
			ok = ok && rep.failed == 0
			sets[i] = rep
		}
		for _, m := range endToEnd {
			a, b := sets[0].e2e[m.name], sets[1].e2e[m.name]
			within, diff := aaVerdict(a, b, m.bound)
			verdict := "ok"
			if !within {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(out, "| %s | %s (%s) | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n", w.name, m.name, m.unit, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	return ok, nil
}

// aaVerdict is the A/A rule: the two values may differ by at most the
// bound, as a share of the first.
func aaVerdict(a, b, bound float64) (bool, float64) {
	diff := math.Abs(a-b) / math.Abs(a)
	return diff <= bound, diff
}

// printMachine writes the block that says what the numbers were taken
// on: they only compare with numbers from the same block.
func printMachine(out io.Writer) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "machine: nproc %d, %s %s/%s, kernel tier %s, commit %s\n",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, qsim.KernelTier(), commit)
	fmt.Fprintf(out, "phases: cold, steady, traced at GOMAXPROCS=1 Parallelism=1; par at GOMAXPROCS=%d, default Parallelism\n", runtime.NumCPU())
	for _, env := range []string{"QAOA2_NOZ2", "QAOA2_NOASM", "QAOA2_NOAVX512"} {
		if v := os.Getenv(env); v != "" {
			fmt.Fprintf(out, "env opt-out in effect: %s=%s\n", env, v)
		}
	}
	wd, _ := os.Getwd()
	fmt.Fprintf(out, "checkpoints and temp files under %s/%s (removed at exit)\n", wd, tempRoot)
}
