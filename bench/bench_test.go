package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// benchmarkJSON is the contract file at the repository root.
var benchmarkJSON string

// TestMain moves the tests into a scratch directory: the harness writes
// its span files and temp files into the working directory.
func TestMain(m *testing.M) {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	benchmarkJSON = filepath.Join(wd, "..", "BENCHMARK.json")
	tmp, err := os.MkdirTemp("", "qaoa2bench-test-")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(tmp); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// spawnInProcess runs a phase on a goroutine behind the same line
// protocol a child process speaks.
func spawnInProcess(_ context.Context, cfg phaseConfig, _ int) (*proc, error) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := childMain(cfg, inR, outW)
		outW.Close()
		done <- err
	}()
	return newProc(inW, outR, func() error { return <-done }), nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestEstimatorsOnHandComputedSamples(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 8, 7}
	if got := fastestMean(xs, 3); !near(got, 2) { // 1,2,3
		t.Errorf("fastestMean(3) = %v, want 2", got)
	}
	if got := fastestMean(xs, 100); !near(got, 39.0/8) {
		t.Errorf("fastestMean over more than all = %v, want the mean", got)
	}
	if got := fastestMean(xs, 0); !near(got, 1) {
		t.Errorf("fastestMean(0) = %v, want the minimum", got)
	}
	// Sorted: 1 2 3 4 5 7 8 9; position q*(n-1).
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 4.5}, {0.9, 8.3}, {1, 9}, {0.25, 2.75}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || mean(nil) != 0 || steadyEstimate(nil, nil) != 0 {
		t.Error("empty samples must read 0")
	}
	// 8 reps: the fastest quarter is 2, the floor 3 -> mean(1,2,3).
	if got := steadyEstimate(xs, nil); !near(got, 2) {
		t.Errorf("steadyEstimate of 8 = %v, want 2", got)
	}
	// 16 reps: the fastest quarter is 4 -> mean(1,1,2,2).
	if got := steadyEstimate(append(append([]float64(nil), xs...), xs...), nil); !near(got, 1.5) {
		t.Errorf("steadyEstimate of 16 = %v, want 1.5", got)
	}
	// The slow tail does not move it.
	if got := steadyEstimate([]float64{1, 1, 1, 50, 90, 70, 60, 80}, nil); !near(got, 1) {
		t.Errorf("steadyEstimate under noise = %v, want 1", got)
	}
	// Two instances, 8 reps: the 3 fastest spread evenly are 2 each.
	// Instance 0 timed 5,4,3,8 -> (3+4)/2; instance 1 timed 1,2,9,7 -> 1.5.
	alternate := []int{0, 1, 0, 1, 0, 1, 0, 1}
	if got := steadyEstimate(xs, alternate); !near(got, (3.5+1.5)/2) {
		t.Errorf("steadyEstimate over 2 instances = %v, want 2.5", got)
	}
	// A slow instance is not dropped in favour of a cheap one.
	if got := steadyEstimate([]float64{1, 10, 1, 10, 1, 10}, alternate[:6]); !near(got, 5.5) {
		t.Errorf("steadyEstimate keeps every instance: got %v, want 5.5", got)
	}
	if s := hostScale(nil); s != 1 {
		t.Errorf("hostScale without samples = %v", s)
	}
	if s := hostScale([]float64{2 * refNominalS, 2 * refNominalS, 2 * refNominalS, 1}); !near(s, 0.5) {
		t.Errorf("hostScale on a host twice as slow = %v, want 0.5", s)
	}
}

func TestSpanSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Layer: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kid", Layer: "b", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "kid", Layer: "b", Start: 30, End: 60},   // overlaps span 2
		{ID: 4, Parent: 1, Name: "late", Layer: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "leaf", Layer: "c", Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i+1, got[i], want[i])
		}
	}
	st := summarize(spans)
	if st.count["kid"] != 2 || st.total["kid"] != 60 || st.self["kid"] != 55 {
		t.Errorf("kid: count %d total %d self %d", st.count["kid"], st.total["kid"], st.self["kid"])
	}
	if st.self["late"] != 30 || st.rootTotal != 100 {
		t.Errorf("late self %d, root total %d", st.self["late"], st.rootTotal)
	}

	tr := newTracer()
	tr.solve.Store(7)
	root := tr.begin("solve", "harness", 0)
	kid := tr.begin("x", "l", root)
	tr.endBytes(kid, 64)
	tr.end(root)
	other := tr.beginSolve("serve.request", "serve", 9)
	tr.end(other)
	got2 := tr.snapshot()
	if got2[1].Parent != root || got2[1].Solve != 7 || got2[1].Bytes != 64 || got2[2].Solve != 9 {
		t.Errorf("tracer bookkeeping: %+v", got2)
	}
	path := "spans.jsonl"
	if err := writeJSONL(path, got2); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if n := bytes.Count(data, []byte("\n")); n != 3 {
		t.Errorf("%d span lines, want 3", n)
	}
	var back span
	if err := json.Unmarshal(bytes.SplitN(data, []byte("\n"), 2)[0], &back); err != nil || back.Name != "solve" {
		t.Errorf("first span line %q: %v", data, err)
	}
	if writeJSONL(filepath.Join("no-such-dir", "x"), got2) == nil {
		t.Error("writing into a missing directory must fail")
	}
}

func TestInstancesAndScheduleFollowTheSeed(t *testing.T) {
	edges := func(g *graph.Graph) string { return fmt.Sprint(g.N(), g.Edges()) }
	for _, w := range workloads {
		if w.serve {
			continue
		}
		a, b, c := w.gen(3, 0, true), w.gen(3, 0, true), w.gen(4, 0, true)
		if edges(a) != edges(b) {
			t.Errorf("%s: same seed gave different instances", w.name)
		}
		if edges(a) == edges(c) || edges(a) == edges(w.gen(3, 1, true)) {
			t.Errorf("%s: another seed or instance index gave the same instance", w.name)
		}
	}
	w, err := findWorkload("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	body := func(seed uint64, batch int) string {
		s := makeSchedule(w, seed, true)
		var out []byte
		for i := range s.slots {
			b, err := json.Marshal(s.request(batch, i))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return string(out)
	}
	if body(5, 1) != body(5, 1) {
		t.Error("same seed gave different request bytes")
	}
	if body(5, 1) == body(6, 1) || body(5, 1) == body(5, 2) {
		t.Error("another seed or batch gave the same request bytes")
	}
	for _, smoke := range []bool{true, false} {
		s := makeSchedule(w, 9, smoke)
		repeats, high := 0, 0
		for i, sl := range s.slots {
			if sl.first != i {
				repeats++
				if sl.first > i || s.slots[sl.first].first != sl.first {
					t.Errorf("slot %d repeats %d, which is not an earlier original", i, sl.first)
				}
				if a, b := s.request(0, i), s.request(0, sl.first); fmt.Sprint(a) != fmt.Sprint(b) {
					t.Errorf("slot %d is not identical to the slot it repeats", i)
				}
			}
			if sl.high {
				high++
			}
		}
		if n := len(s.slots); repeats != n*3/10 || high != n/10 {
			t.Errorf("smoke=%v: %d repeats and %d high of %d slots", smoke, repeats, high, n)
		}
		if s.bodyKB() <= 0 {
			t.Error("empty submission bodies")
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPlanFollowsSeconds(t *testing.T) {
	for _, w := range workloads {
		full := planFor(w, baseSeconds, false, false)
		if full.reps != w.reps || full.cold != 3 {
			t.Errorf("%s at %ds: %+v", w.name, baseSeconds, full)
		}
		for _, p := range []plan{planFor(w, 1, false, false), planFor(w, 60, false, false), planFor(w, 24, true, false), planFor(w, 24, false, true)} {
			seen := map[int]int{}
			for i := 0; i < p.reps; i++ {
				seen[w.instanceOf(i, p.reps)]++
			}
			timedReps := 0
			for inst := 0; inst < w.instances; inst++ {
				if seen[inst] < 1 || inst >= w.timed && seen[inst] != 1 {
					t.Errorf("%s: plan %+v visits instance %d %d times", w.name, p, inst, seen[inst])
				}
				if inst < w.timed {
					timedReps += seen[inst]
				}
			}
			if timedReps < 3 || p.cold < 1 || len(seen) != w.instances {
				t.Errorf("%s: plan %+v breaks the floors", w.name, p)
			}
		}
	}
	// 7 repetitions, 3 instances, 1 timed: five of instance 0, then 1, 2.
	w := workload{instances: 3, timed: 1}
	var got []int
	for i := 0; i < 7; i++ {
		got = append(got, w.instanceOf(i, 7))
	}
	w.timed = 2
	for i := 0; i < 7; i++ {
		got = append(got, w.instanceOf(i, 7))
	}
	if fmt.Sprint(got) != "[0 0 0 0 0 1 2 0 1 0 1 0 1 2]" {
		t.Errorf("instanceOf: %v", got)
	}
}

// TestDecoratorsPreserveResults solves every library workload bare and
// wrapped and wants the same spins, bit for bit.
func TestDecoratorsPreserveResults(t *testing.T) {
	for _, w := range workloads {
		if w.serve {
			continue
		}
		bare, _, err := setup(w, 11, true, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		wrapped, _, err := setup(w, 11, true, 1, tr)
		if err != nil {
			t.Fatal(err)
		}
		a := bare.rep(0, 0)
		b, err := wrapped.(*libRunner).tracedRep(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.failures)+len(b.failures) > 0 || a.digest != b.digest || a.digest == "" {
			t.Errorf("%s: bare %q %v, wrapped %q %v", w.name, a.digest, a.failures, b.digest, b.failures)
		}
		if fmt.Sprint(a.result.Cut.Spins) != fmt.Sprint(b.result.Cut.Spins) {
			t.Errorf("%s: wrapped solve returned other spins", w.name)
		}
		if len(tr.snapshot()) < 3 {
			t.Errorf("%s: no spans recorded", w.name)
		}
		bare.close()
		wrapped.close()
	}
}

// TestDecoratorsKeepTheBatchPath checks that a wrapped fused ansatz is
// still a BatchEvaluator and that multi-start QAOA, which evaluates in
// batches, returns the same cut through the wrapper.
func TestDecoratorsKeepTheBatchPath(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.5, graph.Unweighted, rng.New(2))
	tr := newTracer()
	ans, err := timedBackend{inner: backend.Fused{}, tr: tr}.Prepare(g, backend.Config{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ans.(backend.BatchEvaluator); !ok {
		t.Fatal("wrapped fused ansatz lost EvaluateBatch")
	}
	plain, err := timedBackend{inner: backend.Dense{}, tr: tr}.Prepare(g, backend.Config{Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.(backend.BatchEvaluator); ok {
		t.Error("wrapper invented EvaluateBatch for a backend without it")
	}
	if plain.Diagonal() == nil || plain.Layout() != nil && len(plain.Layout()) != 8 {
		t.Error("ansatz accessors not forwarded")
	}
	_ = plain.Report()

	bare := solver.QAOASolver{Opts: qaoa.Options{Layers: 2, Restarts: 3}}
	want, err := bare.SolveSub(g, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := instrument(bare, tr, "leaf", 0).SolveSub(g, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("multi-start through the wrapper: %v, want %v", got, want)
	}
	st := summarize(tr.snapshot())
	if st.count["backend.evaluate_batch"] == 0 {
		t.Error("no batched evaluation went through the wrapper")
	}
	if b := evalBytes(8, 2, backend.Fused{}); b != 2*2*2*16<<7 {
		t.Errorf("computed bytes of a Z2 evaluation: %d", b)
	}
	if b := evalBytes(8, 2, backend.Fused{Full: true}); b != 2*2*2*16<<8 {
		t.Errorf("computed bytes of a full evaluation: %d", b)
	}
	if instrument(solver.GWSolver{}, tr, "merge", 4).name != "qaoa2.merge_solve" {
		t.Error("merge role not named")
	}
}

func TestVerifyCutRejectsWrongAnswers(t *testing.T) {
	g := graph.Cycle(4)
	good := []int8{1, -1, 1, -1}
	if err := verifyCut(g, good, 4); err != nil {
		t.Error(err)
	}
	for name, err := range map[string]error{
		"short":       verifyCut(g, good[:3], 4),
		"not a spin":  verifyCut(g, []int8{1, 0, 1, -1}, 2),
		"wrong value": verifyCut(g, good, 3),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if digestSpins(good) == digestSpins([]int8{1, 1, 1, -1}) {
		t.Error("digest ignores the spins")
	}
	var res phaseResult
	res.record("x", outcome{solves: 2, failures: []string{"a", "b", "c"}}, "")
	res.record("y", outcome{solves: 1, head: "h1"}, "h0")
	if res.Attempted != 3 || res.Failed != 3 || len(res.Failures) != 4 {
		t.Errorf("failure accounting: %+v", res)
	}
}

// TestMetricNamesMatchTheContract holds BENCHMARK.json and the tables
// in metrics.go and workloads.go to each other.
func TestMetricNamesMatchTheContract(t *testing.T) {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]int{}
	check := func(name, unit, better string) {
		seen[name]++
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q unit %q better %q breaks the contract", name, unit, better)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) || len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d entries, the tables %d/%d/%d",
			len(file.EndToEnd), len(file.PerLayer), len(file.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	setup := false
	for i, m := range endToEnd {
		f := file.EndToEnd[i]
		check(m.name, m.unit, m.better)
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better || f.Bound == nil || *f.Bound != m.bound {
			t.Errorf("end_to_end[%d]: file %+v, table %+v", i, f, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for i, m := range perLayer {
		f := file.PerLayer[i]
		check(m.name, m.unit, m.better)
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
			t.Errorf("per_layer[%d]: file %+v, table %+v", i, f, m)
		}
	}
	for i, w := range workloads {
		f := file.Workloads[i]
		check(w.name, "x", "lower")
		if f.Name != w.name || f.Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workloads[%d]: file %+v, table %q", i, f, w.name)
		}
		if w.timed < 1 || w.timed > w.instances || w.reps < 3+w.instances {
			t.Errorf("%s: %d reps over %d instances, %d timed", w.name, w.reps, w.instances, w.timed)
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("name %q used %d times", name, n)
		}
	}
	if file.RunSeconds != baseSeconds || len(file.Paths) != 1 || file.Paths[0] != "bench" || len(file.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", file.RunSeconds, file.Paths, file.Command)
	}
	if n := len(file.EndToEnd); n < 1 || n > 16 || len(file.PerLayer) > 128 || len(file.Workloads) < 2 || len(file.Workloads) > 8 {
		t.Error("list sizes outside the contract")
	}
}

// TestSmokeRunOfEveryWorkload drives the orchestrator over every
// workload at smoke size, with phases on goroutines instead of child
// processes, and holds the run to the result line's contract.
func TestSmokeRunOfEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		rep, err := runWorkload(context.Background(), runConfig{w: w, seed: 1, seconds: baseSeconds, trace: traceBoth, smoke: true, spawn: spawnInProcess})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.failed != 0 || rep.attempted < 5 {
			t.Errorf("%s: %d attempted, %d failed: %v", w.name, rep.attempted, rep.failed, rep.failures)
		}
		for _, m := range endToEnd {
			if v := rep.e2e[m.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, m.name, v)
			}
		}
		for _, m := range perLayer {
			if v, ok := rep.layer[m.name]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 && !strings.Contains(m.name, "overhead") && !strings.Contains(m.name, "checkpoint_s") && !strings.Contains(m.name, "wire") && !strings.Contains(m.name, "queue_wait") {
				t.Errorf("%s: %s = %v (present %v)", w.name, m.name, v, ok)
			}
		}
		for name := range rep.layer {
			found := false
			for _, m := range perLayer {
				found = found || m.name == name
			}
			if !found {
				t.Errorf("%s: layer metric %q is not in the table", w.name, name)
			}
		}
		L := rep.layer
		// In this process the server has the host's threads, so a job's
		// sub-solves overlap and their self times sum past the request;
		// the child processes of a real run are single-threaded.
		if got := L["trace.accounted_ratio"]; got < 0.9 || got > 1.1 && !w.serve {
			t.Errorf("%s: self times account for %.3f of the traced solves", w.name, got)
		}
		switch {
		case w.name == "leaf-heavy" && !(L["backend.evaluate_calls"] > 0 && L["gw.calls"] == 0):
			t.Errorf("leaf-heavy: evaluate calls %v, gw calls %v", L["backend.evaluate_calls"], L["gw.calls"])
		case w.name == "merge-heavy" && !(L["backend.evaluate_calls"] == 0 && L["gw.calls"] > 0 && L["partition.size_capped_s"] > 0):
			t.Errorf("merge-heavy: evaluate calls %v, gw calls %v", L["backend.evaluate_calls"], L["gw.calls"])
		case w.runtime && !(L["runtime.checkpoint_records"] > 0 && L["runtime.restored"] == L["runtime.checkpoint_records"] && L["runtime.tasks"] == L["runtime.events"] && L["solver.attempts"] > 0):
			t.Errorf("dag-checkpoint: records %v restored %v tasks %v events %v", L["runtime.checkpoint_records"], L["runtime.restored"], L["runtime.tasks"], L["runtime.events"])
		case w.serve && !(L["serve.cache_hit_share"] > 0 && L["serve.jobs"] > 0 && L["serve.rejected"] == 0 && L["serve.events_per_job"] > 0):
			t.Errorf("serve-mix: hit share %v jobs %v", L["serve.cache_hit_share"], L["serve.jobs"])
		}
		if _, err := os.Stat("trace-" + w.name + ".jsonl"); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
		for _, trace := range []int{traceOff, traceOn, traceBoth} {
			line := rep.line(trace)
			want := map[int]int{traceOff: len(endToEnd), traceOn: len(perLayer), traceBoth: len(endToEnd) + len(perLayer)}[trace]
			if len(line.Metrics) != want || !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace %d: %d metrics, correct %v", w.name, trace, len(line.Metrics), line.Correct)
			}
			var buf bytes.Buffer
			rep.print(&buf, trace)
			if !strings.Contains(buf.String(), w.name) {
				t.Errorf("%s: table does not name the workload", w.name)
			}
		}
	}
	if entries, _ := os.ReadDir(tempRoot); len(entries) != 0 {
		t.Errorf("%d temp entries left behind", len(entries))
	}
}

func TestRunRejectsBadArgumentsAndReportsFailures(t *testing.T) {
	ctx := context.Background()
	if _, err := run(ctx, io.Discard, "nope", 1, 24, traceOff, false, true, spawnInProcess); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := run(ctx, io.Discard, "all", 1, 0, traceOff, false, true, spawnInProcess); err == nil {
		t.Error("-seconds 0 accepted")
	}
	var out bytes.Buffer
	ok, err := run(ctx, &out, "merge-heavy", 2, 24, traceOff, false, true, spawnInProcess)
	if err != nil || !ok {
		t.Fatalf("run: ok %v, err %v", ok, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(endToEnd) || !last.Correct {
		t.Errorf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !strings.Contains(out.String(), "machine: nproc") {
		t.Error("no machine block")
	}

	// A child that fails makes the run an error, and is still reaped.
	broken := func(ctx context.Context, cfg phaseConfig, n int) (*proc, error) {
		if cfg.phase == "cold" {
			cfg.phase = "no-such-phase"
		}
		return spawnInProcess(ctx, cfg, n)
	}
	if _, err := run(ctx, io.Discard, "merge-heavy", 2, 24, traceOff, false, true, broken); err == nil {
		t.Error("a failing child did not fail the run")
	}
	// Two processes that disagree on an answer fail the determinism check.
	rep := &report{workload: "w", attempted: 2}
	rep.crossCheck("cold start", []string{"a"}, []string{"b"})
	rep.crossCheck("cold start", []string{"a"}, []string{"a"})
	if rep.failed != 1 || rep.line(traceOff).Correct {
		t.Errorf("cross-process mismatch not counted: %+v", rep)
	}
}

func TestAAComparesTwoSetsAgainstTheBounds(t *testing.T) {
	var out bytes.Buffer
	w, _ := findWorkload("merge-heavy")
	if _, err := runAA(context.Background(), &out, []workload{w}, 1, baseSeconds, true, spawnInProcess); err != nil {
		t.Fatal(err)
	}
	table := out.String()
	for _, m := range endToEnd {
		if !strings.Contains(table, "| merge-heavy | "+m.name+" ") {
			t.Errorf("A/A table misses %s:\n%s", m.name, table)
		}
	}
	// Counts repeat exactly between the two sets.
	if !strings.Contains(table, "| 0.00% | 5% | ok |") {
		t.Errorf("cut_ratio should agree exactly:\n%s", table)
	}
	if ok, _ := aaVerdict(1.0, 1.3, 0.25); ok {
		t.Error("30% apart passed a 25% bound")
	}
	if ok, _ := aaVerdict(1.0, math.NaN(), 0.25); ok {
		t.Error("NaN passed")
	}
}
