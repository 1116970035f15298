package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qaoa2/internal/retry"
)

// erReq builds a multi-sub-graph request: an Erdős–Rényi-shaped ring
// with chords, large enough to force partitioning under the qubit cap
// so a run emits partition, several sub-solve, merge and stitch
// events.
func erReq(n int, maxQubits int, seed uint64) SolveRequest {
	spec := GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, EdgeSpec{I: i, J: (i + 1) % n, W: 1})
		if j := (i + 7) % n; j != i {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			spec.Edges = append(spec.Edges, EdgeSpec{I: lo, J: hi, W: 0.5})
		}
	}
	return SolveRequest{Graph: spec, MaxQubits: maxQubits, Solver: "anneal", Merge: "anneal", Seed: seed}
}

// collectStream follows one NDJSON stream to its status line.
func collectStream(c *Client, id string) ([]Event, JobStatus, error) {
	var evs []Event
	st, err := c.Stream(context.Background(), id, func(ev Event) { evs = append(evs, ev) })
	return evs, st, err
}

// TestNDJSONEventOrdering submits one partitioned solve and follows
// its event stream from several concurrent subscribers: every
// subscriber sees the identical, gap-free, strictly ordered sequence
// (replay + live), ending in the terminal status line.
func TestNDJSONEventOrdering(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}

	st, err := c.Submit(context.Background(), erReq(40, 8, 5))
	if err != nil {
		t.Fatal(err)
	}

	const subscribers = 3
	sequences := make([][]Event, subscribers)
	finals := make([]JobStatus, subscribers)
	errs := make([]error, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sequences[i], finals[i], errs[i] = collectStream(c, st.ID)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("subscriber %d: %v", i, err)
		}
	}

	ref := sequences[0]
	if len(ref) == 0 {
		t.Fatal("no events streamed")
	}
	kinds := make(map[string]int)
	for i, ev := range ref {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d, want %d (ordering violated)", i, ev.Seq, i+1)
		}
		kinds[ev.Kind]++
	}
	if kinds["partition"] == 0 || kinds["sub-solve"] < 2 || kinds["stitch"] != 1 {
		t.Fatalf("unexpected event mix: %v", kinds)
	}
	for i := 1; i < subscribers; i++ {
		if fmt.Sprint(sequences[i]) != fmt.Sprint(ref) {
			t.Fatalf("subscriber %d saw a different sequence:\n%v\nvs\n%v", i, sequences[i], ref)
		}
	}
	for i, fin := range finals {
		if fin.State != JobDone || fin.Result == nil {
			t.Fatalf("subscriber %d terminal status: %+v", i, fin)
		}
		if fin.Events != len(ref) {
			t.Fatalf("subscriber %d status counts %d events, stream had %d", i, fin.Events, len(ref))
		}
	}

	// A late subscriber replays the full identical sequence.
	late, fin, err := collectStream(c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(late) != fmt.Sprint(ref) || fin.State != JobDone {
		t.Fatal("post-completion replay differs from the live stream")
	}
}

// TestHTTPAPISurface exercises the non-streaming endpoints and error
// mapping: 400 on garbage, 404 on unknown jobs, 503 while draining,
// submit/job round-trips, and the jobs listing.
func TestHTTPAPISurface(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	ctx := context.Background()

	resp, err := hs.Client().Post(hs.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}

	if _, err := c.Job(ctx, "missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job: %v, want 404", err)
	}

	st, err := c.Solve(ctx, ringReq(10, 77), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Result == nil || len(st.Result.Spins) != 10 {
		t.Fatalf("solve returned %+v", st)
	}
	got, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || got.Result.Spins != st.Result.Spins {
		t.Fatalf("job fetch result mismatch: %+v vs %+v", got.Result, st.Result)
	}

	var health map[string]string
	hresp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("health %v, want ok", health)
	}

	s.Drain()
	if _, err := c.Submit(ctx, ringReq(12, 78)); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit while draining: %v, want 503", err)
	}
	hresp, err = hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = nil
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health["status"] != "draining" {
		t.Fatalf("health %v, want draining", health)
	}

	lresp, err := hs.Client().Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("jobs listing %+v, want exactly %s", list, st.ID)
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestSolveBodyLimit posts one valid request padded with leading
// whitespace to exactly MaxSolveBody bytes and to one byte more: the
// first is decoded and accepted, the second is refused with 413 and
// the typed error envelope — so it is the size, not the content, that
// the limit rejects. The handler is called directly: the decoder's walk
// over 16 MiB is the cost of the test, a loopback hop would double it.
func TestSolveBodyLimit(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req, err := json.Marshal(ringReq(10, 77))
	if err != nil {
		t.Fatal(err)
	}
	post := func(size int64) *httptest.ResponseRecorder {
		body := io.MultiReader(io.LimitReader(spaces{}, size-int64(len(req))), bytes.NewReader(req))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", body))
		return rec
	}

	rec := post(MaxSolveBody)
	var st JobStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || st.ID == "" {
		t.Fatalf("body of exactly the limit: HTTP %d, status %+v; want 200 and a job", rec.Code, st)
	}

	rec = post(MaxSolveBody + 1)
	var body errorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(body.Error, "request body too large") {
		t.Fatalf("body one byte over the limit: HTTP %d %q, want 413 and the typed error", rec.Code, body.Error)
	}
}

// TestInstanceSizeBounds: the node count of a GraphSpec is an allocation
// request, so it is refused before graph.New sees it — at Build, which
// every route to a graph passes (plain requests, problem conflict
// graphs, raw Hamiltonians, number partitioning, JobKey) — with the
// typed error, and over HTTP with 413 and the usual envelope. The
// bounds themselves are admitted.
func TestInstanceSizeBounds(t *testing.T) {
	if g, err := (GraphSpec{Nodes: maxGraphNodes}).Build(); err != nil || g.N() != maxGraphNodes {
		t.Fatalf("graph of exactly maxGraphNodes refused: %v", err)
	}
	if err := checkSize(maxGraphNodes, maxGraphEdges); err != nil {
		t.Fatalf("instance at both bounds refused: %v", err)
	}
	errOf := func(_ any, err error) error { return err }
	refused := map[string]error{
		"nodes":              errOf(GraphSpec{Nodes: maxGraphNodes + 1}.Build()),
		"edges":              errOf(GraphSpec{Nodes: 2, Edges: make([]EdgeSpec, maxGraphEdges+1)}.Build()),
		"mis conflict graph": errOf(ProblemSpec{Kind: "mis", Graph: &GraphSpec{Nodes: 10_000_000_000}}.Build()),
		"ising vars":         errOf(ProblemSpec{Kind: "ising", Vars: 10_000_000_000}.Build()),
		"ising couplings":    errOf(ProblemSpec{Kind: "ising", Vars: 2, Couplings: make([]CouplingSpec, maxGraphEdges+1)}.Build()),
		// 1449 numbers couple in 1449·1448/2 = 1 049 076 pairs, just over 2^20.
		"number-partition pairs": errOf(ProblemSpec{Kind: "number-partition", Numbers: make([]float64, 1449)}.Build()),
		"job key":                errOf(SolveRequest{Graph: GraphSpec{Nodes: maxGraphNodes + 1}}.JobKey()),
	}
	for what, err := range refused {
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s over the bound: error %v, want ErrTooLarge", what, err)
		}
	}

	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, body := range []string{
		`{"graph":{"nodes":10000000000}}`,
		`{"problem":{"kind":"ising","vars":10000000000}}`,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
		var eb errorBody
		if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(eb.Error, "instance too large: 10000000000 nodes") {
			t.Fatalf("%s: HTTP %d %q, want 413 naming the node count", body, rec.Code, eb.Error)
		}
	}
}

// TestLayersBound pins the QAOA depth bound: normalize admits
// maxLayers, and a body asking for more gets HTTP 400 naming the limit
// before any graph or problem is built.
func TestLayersBound(t *testing.T) {
	if _, err := (SolveRequest{Layers: maxLayers}).normalize(); err != nil {
		t.Fatalf("maxLayers refused: %v", err)
	}
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, layers := range []int{maxLayers + 1, 2000000000} {
		body := fmt.Sprintf(`{"graph":{"nodes":2,"edges":[{"i":0,"j":1,"w":1}]},"layers":%d}`, layers)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
		var eb errorBody
		if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d layers, limit %d", layers, maxLayers)
		if rec.Code != http.StatusBadRequest || !strings.Contains(eb.Error, want) {
			t.Fatalf("layers=%d: HTTP %d %q, want 400 with %q", layers, rec.Code, eb.Error, want)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused requests left %d jobs", len(jobs))
	}
}

// TestCheckpointImportRejectsNonKeyIDs pins that PUT
// /v1/jobs/{id}/checkpoint writes only inside the state dir. The id
// names the checkpoint file, so an id that is not a job key — an
// escaped "../" path above all — is answered 400 and creates nothing,
// while a job-key id still imports.
func TestCheckpointImportRejectsNonKeyIDs(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "state")
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	put := func(id string) int {
		req, err := http.NewRequest(http.MethodPut, hs.URL+"/v1/jobs/"+id+"/checkpoint", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, id := range []string{
		"..%2F..%2Fpwned", "..%2F0123456789abcdef", "0123456789ABCDEF",
		"0123456789abcde", "0123456789abcdef0", "0123456789abcdeg",
	} {
		if code := put(id); code != http.StatusBadRequest {
			t.Errorf("PUT %s: status %d, want 400", id, code)
		}
	}
	if code := put("0123456789abcdef"); code != http.StatusOK {
		t.Fatalf("PUT of a job key: status %d, want 200", code)
	}
	var files []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "0123456789abcdef.ckpt"); len(files) != 1 || files[0] != want {
		t.Fatalf("files after the imports: %v, want only %s", files, want)
	}
	if data, err := os.ReadFile(files[0]); err != nil || string(data) != "{}" {
		t.Fatalf("imported checkpoint %q, %v; want {}", data, err)
	}
}

// TestStatusMapping pins the one error-to-status mapping every door
// answers through, Retry-After included. The rows marked gateway run
// with a coordinator's gateway function: what a worker answered over
// the wire passes through with its own code, and a failure with no
// type is the gateway's.
func TestStatusMapping(t *testing.T) {
	gateway := func(error) int { return http.StatusBadGateway }
	for _, tc := range []struct {
		name       string
		err        error
		gateway    bool
		code       int
		retryAfter string
	}{
		{"body over its bound", fmt.Errorf("serve: bad request body: %w", &http.MaxBytesError{Limit: MaxSolveBody}), false, http.StatusRequestEntityTooLarge, ""},
		{"instance over its bound", fmt.Errorf("%w: 10000000000 nodes", ErrTooLarge), true, http.StatusRequestEntityTooLarge, ""},
		{"queue full", hinted{ErrQueueFull, 7}, false, http.StatusTooManyRequests, "7"},
		{"draining", hinted{ErrDraining, 30}, false, http.StatusServiceUnavailable, "30"},
		{"no such job", ErrNotFound, true, http.StatusNotFound, ""},
		{"refusal", errors.New("serve: 65 layers, limit 64"), false, http.StatusBadRequest, ""},
		{"worker 503 with its hint", &retry.StatusError{Code: http.StatusServiceUnavailable, Msg: "serve: server draining", RetryAfter: 12 * time.Second}, true, http.StatusServiceUnavailable, "12"},
		{"worker 413", fmt.Errorf("fleet: submit: %w", &retry.StatusError{Code: http.StatusRequestEntityTooLarge, Msg: "serve: instance too large"}), true, http.StatusRequestEntityTooLarge, ""},
		{"worker 429", &retry.StatusError{Code: http.StatusTooManyRequests, Msg: "queue full"}, true, http.StatusTooManyRequests, ""},
		{"gateway failure", errors.New("connection refused"), true, http.StatusBadGateway, ""},
	} {
		var g func(error) int
		if tc.gateway {
			g = gateway
		}
		rec := httptest.NewRecorder()
		writeError(rec, tc.err, g)
		if rec.Code != tc.code || rec.Header().Get("Retry-After") != tc.retryAfter {
			t.Errorf("%s: HTTP %d, Retry-After %q; want %d, %q", tc.name, rec.Code, rec.Header().Get("Retry-After"), tc.code, tc.retryAfter)
		}
		var eb errorBody
		if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil || eb.Error != tc.err.Error() {
			t.Errorf("%s: body %+v, %v; want the error's text", tc.name, eb, err)
		}
	}
}

// TestCheckpointImportBounded: a PUT /v1/jobs/{id}/checkpoint body one
// byte over maxCheckpointImport is refused with 413 and writes
// nothing. It used to be cut at the bound, imported and answered 200.
func TestCheckpointImportBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	header := []byte("{}\n")
	body := io.MultiReader(bytes.NewReader(header), io.LimitReader(spaces{}, maxCheckpointImport+1-int64(len(header))))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/jobs/0123456789abcdef/checkpoint", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("checkpoint one byte over the bound: HTTP %d %s, want 413", rec.Code, rec.Body)
	}
	if files, err := filepath.Glob(filepath.Join(dir, "0123456789abcdef*")); err != nil || len(files) != 0 {
		t.Fatalf("files of the job after the refused import: %v, %v; want none", files, err)
	}
}
