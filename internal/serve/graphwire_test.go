package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/ising"
	"qaoa2/internal/rng"
)

// objectForm is the JSON a GraphSpec had on the wire before the text
// form, which the server still reads.
func objectForm(t *testing.T, s GraphSpec) string {
	t.Helper()
	b, err := json.Marshal(graphObject(s))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGraphSpecTextIsWriteTo: a GraphSpec marshals to one JSON string
// holding exactly what graph.WriteTo writes for the same graph.
func TestGraphSpecTextIsWriteTo(t *testing.T) {
	g := graph.New(7)
	for k, w := range []float64{1, -0.5, 0.1, 1e-300, 1e21, 3} {
		g.MustAddEdge(k, k+1, w)
	}
	b, err := json.Marshal(GraphSpecOf(g))
	if err != nil {
		t.Fatal(err)
	}
	var text string
	if err := json.Unmarshal(b, &text); err != nil {
		t.Fatalf("%s is not a JSON string: %v", b, err)
	}
	var want bytes.Buffer
	if _, err := g.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if text != want.String() {
		t.Fatalf("wire text %q, WriteTo %q", text, want.String())
	}
}

// TestGraphSpecFormsKeyAsBefore: a graph job and a mis job over a
// path, and the EXPERIMENTS.md quickstart's job over a 4-cycle, each
// sent in the object and in the text form, get the ids they had before
// the text form existed. A problem's graph keys in the object form:
// keyed as text, the mis id would move to 3ee58e3585dc8d9b. (The
// quickstart printed 64b26bfa89ea2a07, an id from before the job key
// took its present form; c9d9b3c2eb190b39 is the one the server gave
// before and gives now.)
func TestGraphSpecFormsKeyAsBefore(t *testing.T) {
	path := GraphSpec{Nodes: 3, Edges: []EdgeSpec{{0, 1, 1}, {1, 2, 1}}}
	cycle := GraphSpec{Nodes: 4, Edges: []EdgeSpec{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}}}
	for _, tc := range []struct {
		graph      GraphSpec
		text       string
		body, want string
	}{
		{path, `"3 2\n0 1 1\n1 2 1\n"`, `{"graph":%s,"seed":1}`, "db5b7eeca9cd36b0"},
		{path, `"3 2\n0 1 1\n1 2 1\n"`, `{"problem":{"kind":"mis","graph":%s},"seed":1}`, "bcb3261489a768a6"},
		{cycle, `"4 4\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n"`,
			`{"graph":%s,"solver":"anneal","merge":"anneal","seed":7}`, "c9d9b3c2eb190b39"},
	} {
		for _, form := range []string{objectForm(t, tc.graph), tc.text} {
			var req SolveRequest
			if err := json.Unmarshal([]byte(fmt.Sprintf(tc.body, form)), &req); err != nil {
				t.Fatal(err)
			}
			if got, err := req.JobKey(); err != nil || got != tc.want {
				t.Errorf("%s with graph %s: id %s (%v), want %s", tc.body, form, got, err, tc.want)
			}
		}
	}
}

// TestGraphSpecFormsSolveAlike: the object and the text form of one
// request, posted to two fresh servers, get the same job id and a
// bit-identical result, for a graph job and for a mis job.
func TestGraphSpecFormsSolveAlike(t *testing.T) {
	g := graph.ErdosRenyi(14, 0.4, graph.UniformWeights, rng.New(8))
	spec := GraphSpecOf(g)
	for k := range spec.Edges { // some edges listed the other way round
		if e := &spec.Edges[k]; k%3 == 0 {
			e.I, e.J = e.J, e.I
		}
	}
	textForm, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if textForm[0] != '"' {
		t.Fatalf("GraphSpec marshals to %.40s..., want a string", textForm)
	}
	for _, body := range []string{
		`{"graph":%s,"maxQubits":6,"solver":"qaoa","seed":4}`,
		`{"problem":{"kind":"mis","graph":%s},"maxQubits":6,"solver":"best","seed":4}`,
	} {
		var results [2]JobStatus
		for k, form := range []string{objectForm(t, spec), string(textForm)} {
			s, err := New(Config{GlobalParallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s.Handler())
			resp, err := http.Post(hs.URL+"/v1/solve", "application/json", strings.NewReader(fmt.Sprintf(body, form)))
			if err != nil {
				t.Fatal(err)
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v", body, resp.StatusCode, err)
			}
			results[k] = waitDone(t, s, st.ID)
			hs.Close()
			s.Close()
		}
		a, b := results[0], results[1]
		if a.ID != b.ID {
			t.Fatalf("%s: object form id %s, text form id %s", body, a.ID, b.ID)
		}
		if a.Result == nil || b.Result == nil {
			t.Fatalf("%s: jobs ended %s / %s", body, a.State, b.State)
		}
		ra, rb := *a.Result, *b.Result
		if ra.Spins != rb.Spins || math.Float64bits(ra.Value) != math.Float64bits(rb.Value) ||
			math.Float64bits(ra.IntraCut) != math.Float64bits(rb.IntraCut) ||
			math.Float64bits(ra.CrossCut) != math.Float64bits(rb.CrossCut) {
			t.Fatalf("%s: results differ: %+v / %+v", body, ra, rb)
		}
		if (ra.Problem == nil) != (rb.Problem == nil) ||
			ra.Problem != nil && (ra.Problem.Spins != rb.Problem.Spins || math.Float64bits(ra.Problem.Energy) != math.Float64bits(rb.Problem.Energy)) {
			t.Fatalf("%s: problem reports differ: %+v / %+v", body, ra.Problem, rb.Problem)
		}
	}
}

// TestRestoreObjectFormJobs: testdata/jobs-object-form.json was written
// by a server that sent graphs in the object form (graph, mis,
// vertex-cover and edgeless-mis jobs). Every job restores under its
// stored id, and again after the table is rewritten in the text form.
func TestRestoreObjectFormJobs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "jobs-object-form.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixture persistedState
	if err := json.Unmarshal(data, &fixture); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, jobsFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		s, err := New(Config{GlobalParallelism: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PersistErr(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, pj := range fixture.Jobs {
			st, err := s.Job(pj.ID)
			if err != nil || st.State != JobDone || st.Result == nil || st.Result.Spins != pj.Result.Spins {
				t.Fatalf("round %d: job %s restored as %+v, %v", round, pj.ID, st, err)
			}
		}
		s.Drain() // writes the table back, now in the text form
		s.Close()
	}
	if after, _ := os.ReadFile(filepath.Join(dir, jobsFile)); !bytes.Contains(after, []byte(`"graph":"3 2\n0 1 1\n1 2 1\n"`)) {
		t.Fatalf("rewritten table holds no text-form graph: %.200s", after)
	}
}

// TestRestoreProblemOverEdgelessGraph: the text form cannot tell a nil
// edge list from an empty one, so a problem over an edgeless graph
// submitted with nil edges must key as it does once its persisted
// request is read back.
func TestRestoreProblemOverEdgelessGraph(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{GlobalParallelism: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := solveWait(t, s, SolveRequest{Problem: &ProblemSpec{Kind: ising.KindMIS,
		Graph: &GraphSpec{Nodes: 4}, Weights: []float64{1, 2, 3, 4}}, Solver: "exact"})
	s.Close()
	s, err = New(Config{GlobalParallelism: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, err := s.Job(st.ID); err != nil || got.State != JobDone {
		t.Fatalf("job %s restored as %+v, %v (%v)", st.ID, got, err, s.PersistErr())
	}
}

// TestNonFiniteWeightsRefused: NaN, +Inf and a pair listed twice whose
// weights sum to +Inf are refused with a *graph.RefusedError through
// Submit, and with 400 through POST /v1/solve, in either form.
func TestNonFiniteWeightsRefused(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, edges := range [][]EdgeSpec{
		{{0, 1, math.NaN()}},
		{{0, 1, math.Inf(1)}},
		{{0, 1, 1e308}, {1, 0, 1e308}},
	} {
		spec := GraphSpec{Nodes: 3, Edges: edges}
		_, err := s.Submit(SolveRequest{Graph: spec, Solver: "anneal"})
		var re *graph.RefusedError
		if !errors.As(err, &re) {
			t.Errorf("Submit of %v: error %v, want a *graph.RefusedError", edges, err)
		}
		text, _ := spec.MarshalText()
		bodies := []string{fmt.Sprintf(`{"graph":%q,"solver":"anneal"}`, text)}
		if object, err := json.Marshal(graphObject(spec)); err == nil { // JSON has no NaN or Inf
			bodies = append(bodies, fmt.Sprintf(`{"graph":%s,"solver":"anneal"}`, object))
		}
		for _, body := range bodies {
			resp, err := http.Post(hs.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "finite") && !strings.Contains(string(msg), "sum to") {
				t.Errorf("POST %s: %d %s, want 400 naming the weight", body, resp.StatusCode, msg)
			}
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted", n)
	}
}

// TestStarBuildsInLinearTime: every edge of a star shares one endpoint,
// which made the AddEdge loop quadratic (2.6 s at 100 000 edges).
// Submit builds the graph on the request goroutine before admission.
func TestStarBuildsInLinearTime(t *testing.T) {
	const m = 1 << 18
	spec := GraphSpec{Nodes: m + 1, Edges: make([]EdgeSpec, m)}
	for j := range spec.Edges {
		spec.Edges[j] = EdgeSpec{I: 0, J: j + 1, W: 1}
	}
	start := time.Now()
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("building a %d-edge star took %v", m, took)
	}
	if g.Degree(0) != m {
		t.Fatalf("centre degree %d, want %d", g.Degree(0), m)
	}
}

// BenchmarkGraphSpecWire times one serve-mix-sized graph (110 nodes,
// about 330 edges) through each step of a submission, in the text form
// the wire carries and in the object form it still reads.
func BenchmarkGraphSpecWire(b *testing.B) {
	g := graph.ErdosRenyi(110, 6.0/110, graph.Unweighted, rng.New(1))
	spec := GraphSpecOf(g)
	text, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	object, err := json.Marshal(graphObject(spec))
	if err != nil {
		b.Fatal(err)
	}
	for _, form := range []struct {
		name string
		body []byte
		v    any
	}{{"text", text, spec}, {"object", object, graphObject(spec)}} {
		b.Run("decode/"+form.name, func(b *testing.B) {
			b.SetBytes(int64(len(form.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var s GraphSpec
				if err := json.Unmarshal(form.body, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(form.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spec.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestGraphObjectRefusesUnknownFields: the object form is read as
// strictly as POST /v1/solve always read it, whoever decodes it.
func TestGraphObjectRefusesUnknownFields(t *testing.T) {
	var req SolveRequest
	if err := json.Unmarshal([]byte(`{"graph":{"nodes":2,"edgez":[]}}`), &req); err == nil {
		t.Fatal("unknown graph field accepted")
	}
}

// TestProblemWeightSumRefused: a raw Ising problem whose coupling sums
// overflow has no reduction graph; Submit refuses it with the graph
// package's error and the HTTP front door answers 400.
func TestProblemWeightSumRefused(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	spec := ProblemSpec{Kind: ising.KindIsing, Vars: 2, Couplings: []CouplingSpec{{0, 1, 1e308}, {1, 0, 1e308}}}
	_, err = s.Submit(SolveRequest{Problem: &spec, Solver: "anneal"})
	var re *graph.RefusedError
	if !errors.As(err, &re) {
		t.Fatalf("Submit: error %v, want a *graph.RefusedError", err)
	}
	body, err := json.Marshal(SolveRequest{Problem: &spec, Solver: "anneal"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "finite") {
		t.Fatalf("POST %s: %d %s, want 400 naming the weight", body, resp.StatusCode, msg)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted", n)
	}
}
