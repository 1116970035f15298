package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/hpc"
	q2 "qaoa2/internal/qaoa2"
	"qaoa2/internal/retry"
	"qaoa2/internal/rng"
	"qaoa2/internal/serve"
	"qaoa2/internal/solver"
)

// TestFrontDoorWireCompatible: a serve.Client pointed at the front
// door behaves exactly as one pointed at a single daemon — same
// results, gap-free event sequence, working status/cache endpoints.
func TestFrontDoorWireCompatible(t *testing.T) {
	_, c := startFleet(t, 3, nil)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	req := fleetReq(24, 8, 41)
	want := refSolve(t, nil, []serve.SolveRequest{req})[0]

	cl := &serve.Client{Base: front.URL}
	var seqs []int
	st, err := cl.Solve(context.Background(), req, func(ev serve.Event) {
		seqs = append(seqs, ev.Seq)
	})
	if err != nil {
		t.Fatalf("solve through front door: %v", err)
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("front-door job: %+v", st)
	}
	if st.Result.Spins != want.Result.Spins || st.Result.Value != want.Result.Value {
		t.Fatal("front-door solve differs from single-daemon solve")
	}
	if len(seqs) == 0 {
		t.Fatal("no events streamed through the front door")
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("event sequence has gaps: %v", seqs)
		}
	}

	// Status and cache-peek answer for the finished job.
	got, err := cl.Job(context.Background(), st.ID)
	if err != nil || got.State != serve.JobDone {
		t.Fatalf("front-door job status: %+v, %v", got, err)
	}
	peek, ok, err := cl.CachePeek(context.Background(), st.ID)
	if err != nil || !ok || !peek.Cached {
		t.Fatalf("front-door cache peek: %+v, ok=%v, %v", peek, ok, err)
	}
	if _, ok, err := cl.CachePeek(context.Background(), "no-such-job"); err != nil || ok {
		t.Fatalf("cache peek for unknown id: ok=%v, %v", ok, err)
	}

	// Roster and aggregate health.
	var roster []WorkerStatus
	getJSON(t, front.URL+"/v1/fleet/workers", &roster)
	if len(roster) != 3 {
		t.Fatalf("roster: %+v", roster)
	}
	var health map[string]string
	getJSON(t, front.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}
}

// TestRemoteSolverThroughFrontDoor: hpc.RemoteSolver — the leaf
// dispatcher from the HPC plane — works against the fleet unchanged,
// and a full divide-and-conquer solve with fleet-dispatched leaves is
// bit-identical to the same solve dispatched to a single daemon.
func TestRemoteSolverThroughFrontDoor(t *testing.T) {
	_, c := startFleet(t, 3, nil)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	// Single-daemon reference for the leaf dispatcher.
	ref, err := serve.New(serve.Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	single := httptest.NewServer(ref.Handler())
	defer single.Close()

	big := graph.ErdosRenyi(36, 0.15, graph.Unweighted, rng.New(5))
	solveVia := func(base string) *q2.Result {
		res, err := q2.Solve(big, q2.Options{
			MaxQubits:   8,
			Solver:      hpc.RemoteSolver{Client: &serve.Client{Base: base}},
			MergeSolver: solver.AnnealSolver{},
			Seed:        4,
		})
		if err != nil {
			t.Fatalf("solve via %s: %v", base, err)
		}
		return res
	}
	fleetRes := solveVia(front.URL)
	singleRes := solveVia(single.URL)
	if serve.EncodeSpins(fleetRes.Cut.Spins) != serve.EncodeSpins(singleRes.Cut.Spins) {
		t.Fatal("fleet-dispatched solve differs from single-daemon dispatch")
	}
	if fleetRes.Cut.Value != singleRes.Cut.Value {
		t.Fatalf("fleet value %v, single-daemon value %v", fleetRes.Cut.Value, singleRes.Cut.Value)
	}
	if fleetRes.SubGraphs < 2 {
		t.Fatalf("instance did not exercise division (%d sub-graphs)", fleetRes.SubGraphs)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
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

// TestFrontDoorSizeBounds: the front door holds a request body before
// any worker sees it, so it carries the worker's bound. One valid
// request padded to exactly serve.MaxSolveBody is routed and solved;
// one byte more is refused with 413 — as is an instance over the node
// bound, which the coordinator's own JobKey rejects with
// serve.ErrTooLarge and which used to surface as 502 Bad Gateway.
func TestFrontDoorSizeBounds(t *testing.T) {
	_, c := startFleet(t, 1, nil)
	req, err := json.Marshal(fleetReq(12, 6, 43))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", body))
		var reply struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return rec.Code, reply.ID + reply.Error
	}
	padded := func(size int64) io.Reader {
		return io.MultiReader(io.LimitReader(spaces{}, size-int64(len(req))), bytes.NewReader(req))
	}

	if code, id := post(padded(serve.MaxSolveBody)); code != http.StatusOK || id == "" {
		t.Fatalf("body of exactly the limit: HTTP %d %q; want 200 and a job", code, id)
	}
	if code, msg := post(padded(serve.MaxSolveBody + 1)); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "request body too large") {
		t.Fatalf("body one byte over the limit: HTTP %d %q, want 413 and the typed error", code, msg)
	}
	code, msg := post(strings.NewReader(`{"graph":{"nodes":10000000000}}`))
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, serve.ErrTooLarge.Error()) {
		t.Fatalf("instance over the node bound: HTTP %d %q, want 413 %q", code, msg, serve.ErrTooLarge)
	}
	if code, _ := post(strings.NewReader(`{"graph":`)); code != http.StatusBadRequest {
		t.Fatalf("truncated body: HTTP %d, want 400", code)
	}
}

// TestFrontDoorAnswersAsDaemon: the front door serves the daemon's own
// handlers, so one table of requests gets the same status code from a
// daemon and from a one-worker front door. nodes:0, layers:65 and an
// unknown priority are refused by the coordinator's own JobKey; they
// used to come back 502 from the front door, and a retrying client
// sent them four times. Now one POST reaches it.
func TestFrontDoorAnswersAsDaemon(t *testing.T) {
	daemon, err := serve.New(serve.Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	_, c := startFleet(t, 1, nil)

	valid, err := json.Marshal(fleetReq(12, 6, 43))
	if err != nil {
		t.Fatal(err)
	}
	id, err := fleetReq(12, 6, 43).JobKey()
	if err != nil {
		t.Fatal(err)
	}
	const tiny = `"3 2\n0 1 1\n1 2 1\n"`
	oversize := func() io.Reader {
		return io.MultiReader(io.LimitReader(spaces{}, serve.MaxSolveBody+1-int64(len(valid))), bytes.NewReader(valid))
	}
	const unknown = "/0123456789abcdef"
	for _, row := range []struct {
		name, method, path string
		body               func() io.Reader
		want               int
	}{
		{"valid solve", "POST", "/v1/solve", func() io.Reader { return bytes.NewReader(valid) }, http.StatusOK},
		{"its events", "GET", "/v1/jobs/" + id + "/events", nil, http.StatusOK},
		{"its cached repeat", "POST", "/v1/solve", func() io.Reader { return bytes.NewReader(valid) }, http.StatusOK},
		{"its status", "GET", "/v1/jobs/" + id, nil, http.StatusOK},
		{"its cache entry", "GET", "/v1/cache/" + id, nil, http.StatusOK},
		{"truncated body", "POST", "/v1/solve", func() io.Reader { return strings.NewReader(`{"graph":`) }, http.StatusBadRequest},
		{"body over MaxSolveBody", "POST", "/v1/solve", oversize, http.StatusRequestEntityTooLarge},
		{"graph over the node bound", "POST", "/v1/solve", func() io.Reader { return strings.NewReader(`{"graph":{"nodes":10000000000}}`) }, http.StatusRequestEntityTooLarge},
		{"nodes:0", "POST", "/v1/solve", func() io.Reader { return strings.NewReader(`{"graph":{"nodes":0}}`) }, http.StatusBadRequest},
		{"layers:65", "POST", "/v1/solve", func() io.Reader { return strings.NewReader(`{"graph":` + tiny + `,"layers":65}`) }, http.StatusBadRequest},
		{"unknown priority", "POST", "/v1/solve", func() io.Reader { return strings.NewReader(`{"graph":` + tiny + `,"priority":"urgent"}`) }, http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs" + unknown, nil, http.StatusNotFound},
		{"unknown cache entry", "GET", "/v1/cache" + unknown, nil, http.StatusNotFound},
		{"unknown events", "GET", "/v1/jobs" + unknown + "/events", nil, http.StatusNotFound},
		{"healthz", "GET", "/healthz", nil, http.StatusOK},
	} {
		codes := map[string]int{}
		for door, h := range map[string]http.Handler{"daemon": daemon.Handler(), "front door": c.Handler()} {
			var body io.Reader
			if row.body != nil {
				body = row.body()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(row.method, row.path, body))
			codes[door] = rec.Code
			if row.name == "its cached repeat" && !strings.Contains(rec.Body.String(), `"cached": true`) {
				t.Errorf("%s at the %s: %s; want a cache hit", row.name, door, rec.Body)
			}
		}
		if codes["daemon"] != row.want || codes["front door"] != row.want {
			t.Errorf("%s: daemon HTTP %d, front door HTTP %d; want %d from both", row.name, codes["daemon"], codes["front door"], row.want)
		}
	}

	var posts atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		c.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	cl := &serve.Client{Base: front.URL, Retry: retry.Default(1)}
	_, err = cl.Submit(context.Background(), serve.SolveRequest{Graph: erSpec(3), Layers: 65})
	var se *retry.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || posts.Load() != 1 {
		t.Fatalf("layers:65 through a retrying client: %v after %d POSTs; want one POST answered 400", err, posts.Load())
	}
}
