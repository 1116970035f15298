package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Trace modes of a run.
const (
	traceOff  = 0 // end-to-end metrics only
	traceOn   = 1 // per-layer metrics only (a short untraced pass feeds the ratios)
	traceBoth = 2 // both tables: the default for a person at a terminal
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds int
	trace   int
	smoke   bool
	spawn   spawnFunc
}

// proc is a running child phase: the orchestrator releases its slices
// through stdin and reads acknowledgements and the final report from
// its stdout.
type proc struct {
	stdin io.WriteCloser
	lines *bufio.Scanner
	wait  func() error
}

// spawnFunc starts a phase. threads is its GOMAXPROCS (0 = the host's).
type spawnFunc func(ctx context.Context, cfg phaseConfig, threads int) (*proc, error)

// childMain is the body of a child process: it runs the phase, writing
// one "ack" line when a sliced phase is ready and after each slice, and
// the report as the last line.
func childMain(cfg phaseConfig, in io.Reader, out io.Writer) error {
	cfg.ack = func() { fmt.Fprintln(out, "ack") }
	res, err := runPhase(cfg, in)
	if err != nil {
		return fmt.Errorf("%s %s: %w", cfg.w.name, cfg.phase, err)
	}
	return json.NewEncoder(out).Encode(res)
}

// spawnProcess runs the phase in a child process of this executable, so
// thread count, cold state and tracing are the phase's own.
func spawnProcess(ctx context.Context, cfg phaseConfig, threads int) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-phase", cfg.phase, "-workload", cfg.w.name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-reps", strconv.Itoa(cfg.reps), "-slices", strconv.Itoa(cfg.slices),
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if threads > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(threads))
	}
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return newProc(stdin, stdout, cmd.Wait), nil
}

func newProc(stdin io.WriteCloser, stdout io.Reader, wait func() error) *proc {
	lines := bufio.NewScanner(stdout)
	lines.Buffer(make([]byte, 0, 1<<20), 64<<20)
	return &proc{stdin: stdin, lines: lines, wait: wait}
}

// awaitAck blocks until the child acknowledges (ready, or slice done).
func (p *proc) awaitAck() error {
	if !p.lines.Scan() || p.lines.Text() != "ack" {
		return fmt.Errorf("child ended early: %q", p.lines.Text())
	}
	return nil
}

// release lets the child run its next slice and waits for it.
func (p *proc) release() error {
	if _, err := io.WriteString(p.stdin, "go\n"); err != nil {
		return err
	}
	return p.awaitAck()
}

// finish reads the report and reaps the child. It always waits, so no
// child outlives the run, whatever went wrong before.
func (p *proc) finish() (phaseResult, error) {
	var res phaseResult
	p.stdin.Close() // a child still waiting for a go-ahead gives up
	last := ""
	for p.lines.Scan() {
		last = p.lines.Text()
	}
	if err := p.wait(); err != nil {
		return res, fmt.Errorf("child failed: %w", err)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("child report %q: %w", last, err)
	}
	return res, nil
}

// report is everything one run of one workload measured.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	notes     []string
	e2e       map[string]float64
	layer     map[string]float64
}

func (r *report) absorb(res phaseResult) {
	r.attempted += res.Attempted
	r.failed += res.Failed
	r.failures = append(r.failures, res.Failures...)
	r.notes = append(r.notes, res.Notes...)
}

// crossCheck fails the run when two processes disagree on the answer of
// the same instance and seed.
func (r *report) crossCheck(what string, got, want []string) {
	if len(got) > 0 && len(want) > 0 && got[0] != want[0] {
		r.failed = min(r.failed+1, r.attempted)
		r.failures = append(r.failures, fmt.Sprintf("%s %s: result differs from the steady process's for the same instance and seed", r.workload, what))
	}
}

// one runs a child to completion.
func (rc runConfig) one(ctx context.Context, cfg phaseConfig, threads int) (phaseResult, error) {
	p, err := rc.spawn(ctx, cfg, threads)
	if err != nil {
		return phaseResult{}, err
	}
	return p.finish()
}

// runBounded is runWorkload under the time a run may take, children
// included.
func runBounded(ctx context.Context, rc runConfig) (*report, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	return runWorkload(ctx, rc)
}

// runWorkload measures one workload: timed phases in single-threaded
// children, cold starts interleaved with slices of the steady
// repetitions so that a burst of host noise cannot hit every cold
// start, then (when asked) the traced pass and the multi-threaded pass.
func runWorkload(ctx context.Context, rc runConfig) (*report, error) {
	rep := &report{workload: rc.w.name, e2e: map[string]float64{}, layer: map[string]float64{}}
	p := planFor(rc.w, rc.seconds, rc.trace == traceOn, rc.smoke)
	base := phaseConfig{w: rc.w, seed: rc.seed, smoke: rc.smoke}

	steadyCfg := base
	steadyCfg.phase, steadyCfg.reps, steadyCfg.slices = "steady", p.reps, p.cold
	steady, err := rc.spawn(ctx, steadyCfg, 1)
	if err != nil {
		return nil, err
	}
	var colds []phaseResult
	err = steady.awaitAck()
	for s := 0; s < p.cold && err == nil; s++ {
		coldCfg := base
		coldCfg.phase = "cold"
		var cold phaseResult
		if cold, err = rc.one(ctx, coldCfg, 1); err != nil {
			break
		}
		colds = append(colds, cold)
		err = steady.release()
	}
	st, ferr := steady.finish()
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.w.name, err)
	}

	rep.absorb(st)
	rep.notes = append(rep.notes, fmt.Sprintf("steady rep_s, raw: %.4g of instances %v", st.RepS, st.RepInstance))
	var setups []float64
	for _, c := range colds {
		rep.absorb(c)
		rep.crossCheck("cold start", c.Digests, st.Digests)
		setups = append(setups, c.SetupS)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("cold setup_s, raw: %.4g", setups))
	scale := hostScale(st.RefS)
	rep.notes = append(rep.notes, fmt.Sprintf("host reference loop: fastest quarter %.4g s over %d samples, nominal %.4g s, scale %.4f", steadyEstimate(st.RefS, nil), len(st.RefS), refNominalS, scale))
	solveS := steadyEstimate(st.RepS, st.RepInstance) * scale
	rep.e2e["setup_s"] = fastestMean(setups, 1) * scale
	rep.e2e["solve_s"] = solveS
	rep.e2e["cut_ratio"] = st.CutRatio
	rep.e2e["allocs_per_solve"] = st.AllocsPerSolve
	rep.e2e["alloc_kb_per_solve"] = st.AllocKBPerSolve
	rep.e2e["retained_heap_mb"] = float64(st.RetainedHeap) / (1 << 20)
	if rc.trace == traceOff {
		return rep, nil
	}

	L := rep.layer
	refMin := fastestMean(st.RefS, 1)
	L["host.ref_s_min"] = refMin
	L["host.ref_noise"] = quantile(st.RefS, 0.5)/refMin - 1
	L["host.scale"] = scale
	L["host.peak_rss_mb"] = float64(st.PeakRSSKB) / 1024
	L["e2e.solve_s_p50"] = quantile(st.RepS, 0.5)
	L["e2e.solve_s_p90"] = quantile(st.RepS, 0.9)
	L["e2e.solve_s_min"] = fastestMean(st.RepS, 1)
	L["e2e.setup_s_p50"] = quantile(setups, 0.5)
	L["e2e.reps"] = float64(len(st.RepS))

	tracedCfg := base
	tracedCfg.phase, tracedCfg.reps = "traced", 3
	traced, err := rc.one(ctx, tracedCfg, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.w.name, err)
	}
	rep.absorb(traced)
	rep.crossCheck("traced pass", traced.Digests, st.Digests)
	for k, v := range traced.Layer {
		L[k] = v
	}
	// The traced solves all ran instance 0: compare like with like.
	var first []float64
	for i, inst := range st.RepInstance {
		if inst == 0 {
			first = append(first, st.RepS[i])
		}
	}
	L["trace.overhead_ratio"] = L["trace.solve_s"] / fastestMean(first, 1)

	if !rc.w.serve {
		parCfg := base
		parCfg.phase, parCfg.reps = "par", planFor(rc.w, 0, true, rc.smoke).reps
		par, err := rc.one(ctx, parCfg, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rc.w.name, err)
		}
		rep.absorb(par)
		rep.crossCheck("multi-threaded pass", par.Digests, st.Digests)
		L["par.solve_s"] = steadyEstimate(par.RepS, par.RepInstance) * hostScale(par.RefS)
		L["par.speedup"] = solveS / L["par.solve_s"]
	}
	return rep, nil
}

// line renders the report as the contract's result line: the end-to-end
// metrics without tracing, the per-layer ones with.
func (r *report) line(trace int) resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if trace != traceOn {
		for _, m := range endToEnd {
			out.Metrics[m.name] = value{r.e2e[m.name], m.unit}
		}
	}
	if trace != traceOff {
		for _, m := range perLayer {
			out.Metrics[m.name] = value{r.layer[m.name], m.unit}
		}
	}
	return out
}

// print writes the tables a person reads.
func (r *report) print(w io.Writer, trace int) {
	fmt.Fprintf(w, "\n== %s: %d solves attempted, %d failed ==\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if trace != traceOn {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-34s %14.6g %-6s (%s is better, bound %.2f)\n", m.name, r.e2e[m.name], m.unit, m.better, m.bound)
		}
	}
	if trace != traceOff {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, r.layer[m.name], m.unit)
		}
	}
}
