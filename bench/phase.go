package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is taken at package initialisation, as near to the start
// of the process as the program can see: setup_s runs from here.
var processStart = time.Now()

// phaseConfig is what a child process is asked to measure.
type phaseConfig struct {
	phase  string // cold, steady, traced or par
	w      workload
	seed   uint64
	smoke  bool
	reps   int
	slices int // steady: pause for a line on stdin before each slice
	// ack tells the orchestrator that a sliced phase is warmed up, and
	// then that a slice is done.
	ack func()
}

// phaseResult is what a child reports, as one JSON line.
type phaseResult struct {
	Phase string `json:"phase"`
	// SetupS is the cold time to the first verified result, from
	// process start (cold phase only).
	SetupS float64 `json:"setup_s,omitempty"`
	// RepS is the wall time per solve of every repetition of a timed
	// instance, in order; RepInstance says which instance it ran.
	RepS        []float64 `json:"rep_s,omitempty"`
	RepInstance []int     `json:"rep_instance,omitempty"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Failures    []string  `json:"failures,omitempty"`
	CutRatio    float64   `json:"cut_ratio,omitempty"`
	// Digests fingerprints the answers per instance (first repetition
	// of each); later repetitions must match or they fail.
	Digests []string `json:"digests,omitempty"`
	// AllocsPerSolve and AllocKBPerSolve are runtime.MemStats deltas
	// (Mallocs, TotalAlloc) per solve over the steady repetitions:
	// the mean per instance, then the mean over the instances.
	AllocsPerSolve  float64 `json:"allocs_per_solve,omitempty"`
	AllocKBPerSolve float64 `json:"alloc_kb_per_solve,omitempty"`
	RetainedHeap    uint64  `json:"retained_heap,omitempty"`
	// RefS are the host reference loop's samples, refSamples before
	// every steady repetition.
	RefS      []float64          `json:"ref_s,omitempty"`
	PeakRSSKB int64              `json:"peak_rss_kb,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// record folds one repetition's outcome into the result. want is the
// digest the repetition must reproduce ("" for a first repetition).
func (res *phaseResult) record(label string, out outcome, want string) {
	res.Attempted += out.solves
	for _, f := range out.failures {
		res.fail(label + ": " + f)
	}
	if len(out.failures) == 0 && want != "" && out.head != want {
		res.fail(label + ": result differs from the first repetition of the same instance and seed")
	}
}

// fail counts one failed solve and keeps its reason.
func (res *phaseResult) fail(reason string) {
	res.Failed = min(res.Failed+1, res.Attempted)
	res.Failures = append(res.Failures, reason)
}

// runPhase is the body of a child process. in carries the
// orchestrator's go-ahead lines of a sliced steady phase.
func runPhase(cfg phaseConfig, in io.Reader) (phaseResult, error) {
	switch cfg.phase {
	case "cold":
		return runCold(cfg)
	case "steady", "par":
		return runSteady(cfg, in)
	case "traced":
		return runTraced(cfg)
	}
	return phaseResult{}, fmt.Errorf("unknown phase %q", cfg.phase)
}

// runCold sets the workload up in a fresh process and produces the
// first verified result: one solve, or the first jobs of a batch.
func runCold(cfg phaseConfig) (phaseResult, error) {
	res := phaseResult{Phase: cfg.phase}
	run, _, err := setup(cfg.w, cfg.seed, cfg.smoke, 1, nil)
	if err != nil {
		return res, err
	}
	defer run.close()
	out := coldStart(run)
	res.SetupS = time.Since(processStart).Seconds()
	res.record("cold start", out, "")
	res.CutRatio = out.cutRatio
	res.Digests = []string{out.head}
	return res, nil
}

// coldStart is the first result a user of a fresh process waits for.
func coldStart(run runner) outcome {
	if sr, ok := run.(*serveRunner); ok {
		return sr.batch(0, sr.cold, sr.clients)
	}
	return run.rep(0, 0)
}

// runSteady warms the process with one untimed solve, then times
// cfg.reps repetitions one by one. The "par" phase is the same loop at
// the host's thread count and the library's default parallelism.
func runSteady(cfg phaseConfig, in io.Reader) (phaseResult, error) {
	res := phaseResult{Phase: cfg.phase}
	parallelism := 1
	if cfg.phase == "par" {
		parallelism = 0
	}
	run, _, err := setup(cfg.w, cfg.seed, cfg.smoke, parallelism, nil)
	if err != nil {
		return res, err
	}
	defer run.close()

	warm := run.rep(0, 0)
	res.record("warm-up", warm, "")
	res.Digests = make([]string, cfg.w.instances)
	res.Digests[0] = warm.head
	if sr, ok := run.(*serveRunner); ok {
		res.Notes = append(res.Notes, fmt.Sprintf("closed loop of %d clients, %d jobs per batch", sr.clients, len(sr.sched.slots)))
	}

	if cfg.slices > 0 {
		cfg.ack()
	}
	buf := newRefBuffer()
	lines := bufio.NewScanner(in)
	slices := max(cfg.slices, 1)
	k := cfg.w.instances
	var before, after runtime.MemStats
	var firstWall float64
	perInstance := make([]struct{ solves, mallocs, bytes, ratio float64 }, k)
	for s := 0; s < slices; s++ {
		if cfg.slices > 0 {
			if !lines.Scan() {
				return res, fmt.Errorf("steady: orchestrator went away before slice %d", s)
			}
		}
		for i := cfg.reps * s / slices; i < cfg.reps*(s+1)/slices; i++ {
			inst := cfg.w.instanceOf(i, cfg.reps)
			for n := 0; n < refSamples; n++ {
				res.RefS = append(res.RefS, hostRef(buf))
			}
			runtime.ReadMemStats(&before)
			t := time.Now()
			out := run.rep(repIndex(cfg.w, i), inst)
			wall := time.Since(t).Seconds()
			runtime.ReadMemStats(&after)

			label := fmt.Sprintf("%s rep %d", cfg.w.name, i)
			want := res.Digests[inst]
			if cfg.w.serve {
				want = "" // every batch has its own solve seeds
			}
			res.record(label, out, want)
			if res.Digests[inst] == "" {
				res.Digests[inst] = out.head
			}
			if i == 0 {
				firstWall = wall
			} else if wall > 10*firstWall {
				res.fail(fmt.Sprintf("%s: took %.3fs, over 10x the first repetition (%.3fs)", label, wall, firstWall))
			}
			if inst < cfg.w.timed {
				res.RepS = append(res.RepS, wall/float64(out.solves))
				res.RepInstance = append(res.RepInstance, inst)
			}
			pi := &perInstance[inst]
			pi.solves += float64(out.solves)
			pi.mallocs += float64(after.Mallocs - before.Mallocs)
			pi.bytes += float64(after.TotalAlloc - before.TotalAlloc)
			pi.ratio += out.cutRatio * float64(out.solves)
		}
		if cfg.slices > 0 {
			cfg.ack()
		}
	}
	for _, pi := range perInstance {
		res.AllocsPerSolve += pi.mallocs / pi.solves / float64(k)
		res.AllocKBPerSolve += pi.bytes / 1024 / pi.solves / float64(k)
		res.CutRatio += pi.ratio / pi.solves / float64(k)
	}

	// What the process keeps once the work is done: pools, caches, the
	// server's job table. The runner is still alive here.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.RetainedHeap = after.HeapAlloc
	res.PeakRSSKB = peakRSSKB()
	return res, nil
}

// refSamples is how often the reference loop runs before a repetition:
// enough that its fastest quarter over a run is steadier than the
// solve times it scales.
const refSamples = 4

// repIndex maps a timed repetition to the runner's index. serve-mix
// batches are numbered from 1: batch 0 was the warm-up, and replaying
// it would be answered from the result cache.
func repIndex(w workload, i int) int {
	if w.serve {
		return i + 1
	}
	return i
}

// peakRSSKB reads the process's high-water resident set (Linux; 0
// elsewhere).
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
