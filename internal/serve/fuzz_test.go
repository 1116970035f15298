package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/retry"
	rt "qaoa2/internal/runtime"
)

// FuzzSolveRequest drives arbitrary bodies through the admission steps
// Submit runs before it queues a job: JSON decoding as POST /v1/solve does
// it, normalize (which builds a submitted problem and its MaxCut
// reduction), the graph build and ResolveSolvers. None may panic, and
// every request that passes them all is within the instance bounds and
// the layer bound.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":{"nodes":3,"edges":[{"i":0,"j":1,"w":1},{"i":1,"j":2,"w":-0.5}]},"layers":3,"solver":"qaoa","seed":7}`,
		`{"graph":{"nodes":2,"edges":[{"i":0,"j":1,"w":1}]},"layers":65}`,
		`{"graph":{"nodes":2000000000}}`,
		`{"graph":{"nodes":2,"edges":[{"i":0,"j":0,"w":1}]}}`,
		// "portfolio" is a deleted solver: the unknown-solver rejection.
		`{"graph":{"nodes":2},"solver":"portfolio","merge":"best","maxQubits":4,"priority":"high","parallelism":2}`,
		`{"graph":{"nodes":2},"priority":"urgent"}`,
		`{"graph":{"nodes":2},"parallelism":-1}`,
		`{"graph":{"nodes":2},"solver":"no-such-solver"}`,
		`{"graph":{"nodes":2},"bogus":1}`,
		`{"problem":{"kind":"mis","graph":{"nodes":3,"edges":[{"i":0,"j":1,"w":1}]},"weights":[1,2,3]}}`,
		`{"problem":{"kind":"vertex-cover","graph":{"nodes":3,"edges":[{"i":0,"j":2,"w":1}]},"penalty":2}}`,
		`{"problem":{"kind":"number-partition","numbers":[3,1,1,2,2,1]}}`,
		`{"problem":{"kind":"ising","vars":3,"couplings":[{"i":0,"j":1,"w":1}],"fields":[0.5,0,-1],"offset":2}}`,
		`{"problem":{"kind":"ising","vars":2,"fields":[1]}}`,
		`{"problem":{"kind":"mis"}}`,
		`{"problem":{"kind":"tsp"}}`,
		`{"graph":"3 2\n0 1 1\n1 2 -0.5\n","layers":3,"solver":"qaoa","seed":7}`,
		`{"problem":{"kind":"mis","graph":"# conflict graph\n3 1\n0 2 1\n"}}`,
		`{"graph":"3\n0 1 1\n"}`,
		`{"graph":"3 2\n0 1 1\n"}`,
		`{"graph":"3 1\n0 1 NaN\n"}`,
		`{"graph":"3 1\n1 1 1\n"}`,
		`{"graph":"2000000000 0"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		n, err := req.normalize()
		if err != nil {
			return
		}
		if _, err := n.Graph.Build(); err != nil {
			return
		}
		if _, err := ResolveSolvers(n); err != nil {
			return
		}
		if err := checkSize(n.Graph.Nodes, len(n.Graph.Edges)); err != nil {
			t.Fatalf("accepted an instance over the bounds: %v", err)
		}
		if n.Layers > maxLayers {
			t.Fatalf("accepted %d layers, limit %d", n.Layers, maxLayers)
		}
	})
}

// FuzzGraphSpecText sends arbitrary text as a request's graph. The
// request either fails to decode, with the error graph.Read gives for
// the text the JSON string carries, or decodes to a graph that builds
// wherever graph.Read's does (with the same node count and
// fingerprint) and refuses only what graph.Read refuses or an empty
// graph. Re-encoding the decoded graph gives the same graph back.
// Decoding never allocates by what a header declares.
func FuzzGraphSpecText(f *testing.F) {
	for _, seed := range []string{
		"3 2\n0 1 1\n1 2 -0.5\n",
		"# comment\n\n4 2\n3 0 1e-300\r\n0 3 1e21\n",
		"2000000000 0\n",
		"1000000 1000000\n",
		"0 0\n",
		"3 1\n0 1 NaN\n",
		"3 2\n0 1 1e308\n1 0 1e308\n",
		"3 1\n1 1 1\n",
		"3 2\n0 1 1\n",
		"3 1\n0\u00a01 1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		body, err := json.Marshal(map[string]string{"graph": text})
		if err != nil {
			t.Fatal(err)
		}
		var carried struct{ Graph string }
		if err := json.Unmarshal(body, &carried); err != nil {
			t.Fatal(err)
		}
		want, readErr := graph.Read(strings.NewReader(carried.Graph))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req SolveRequest
		err = json.Unmarshal(body, &req)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(body)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(body), alloc, limit)
		}
		if err != nil {
			if readErr == nil || err.Error() != readErr.Error() {
				t.Fatalf("decode error %v, graph.Read error %v", err, readErr)
			}
			return
		}
		g, err := req.Graph.Build()
		if err != nil {
			if readErr == nil && want.N() > 0 && want.M() <= maxGraphEdges {
				t.Fatalf("build refused what graph.Read accepts: %v", err)
			}
			return
		}
		if readErr != nil {
			t.Fatalf("built what graph.Read refuses: %v", readErr)
		}
		if g.N() != want.N() || rt.GraphFingerprint(g) != rt.GraphFingerprint(want) {
			t.Fatalf("decoded %v, graph.Read made %v", g, want)
		}
		again, err := json.Marshal(req.Graph)
		if err != nil {
			t.Fatal(err)
		}
		var back GraphSpec
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("re-encoded graph %s does not decode: %v", again, err)
		}
		if gb, err := back.Build(); err != nil || gb.N() != g.N() || rt.GraphFingerprint(gb) != rt.GraphFingerprint(g) {
			t.Fatalf("re-encoded graph built as %v (%v), want %v", gb, err, g)
		}
	})
}

// bodyTransport answers every request with 200 and the given body.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(b)), Request: req}, nil
}

// FuzzStreamLines serves arbitrary bodies to Client.Stream. It never
// panics; the events of the lines before the first status line reach
// onEvent in body order and Stream returns that status, unless it is
// a done status without a result, which ends in ErrNoResult; a body
// with no status line, or a line that does not decode before it, ends
// in ErrStreamInterrupted.
func FuzzStreamLines(f *testing.F) {
	const (
		ev     = `{"event":{"seq":1,"task":"s0/sub0","kind":"sub-solve","nodes":4,"value":3}}`
		ev2    = `{"event":{"seq":2,"task":"s0/stitch","kind":"stitch"}}`
		status = `{"status":{"id":"0123456789abcdef","state":"done","result":{"spins":"+-","value":1}}}`
	)
	for _, seed := range []string{
		"",
		ev + "\n" + ev2 + "\n" + status + "\n",
		status,
		ev + "\n" + ev2 + "\n",
		ev + "\n" + `{"event":{"seq":2`,
		"\r\n  \n" + ev + "\r\n" + status + "\r\n" + ev2 + "\n",
		`{"event":{"seq":1},"status":{"state":"queued"}}` + "\n" + ev2,
		"null\n{}\n" + status,
		`"text"` + "\n" + status,
		ev + "\n" + `{"status":{"id":"abc","state":"done"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := &Client{Base: "http://stream.test", HTTP: &http.Client{Transport: bodyTransport(body)}}
		var got []Event
		st, err := c.Stream(context.Background(), "0123456789abcdef", func(e Event) { got = append(got, e) })
		if err != nil && !errors.Is(err, ErrStreamInterrupted) && !errors.Is(err, ErrNoResult) {
			t.Fatalf("Stream error %v wraps neither ErrStreamInterrupted nor ErrNoResult", err)
		}
		if len(body) >= maxStreamLine { // past the line bound the client reads with
			return
		}
		var want []Event
		var wantStatus *JobStatus
		torn := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) == 0 {
				continue
			}
			var sl StreamLine
			if json.Unmarshal(line, &sl) != nil {
				torn = true
				break
			}
			if sl.Event != nil {
				want = append(want, *sl.Event)
			}
			if sl.Status != nil {
				wantStatus = sl.Status
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("events %+v, want %+v", got, want)
		}
		switch {
		case wantStatus == nil || torn:
			if !errors.Is(err, ErrStreamInterrupted) {
				t.Fatalf("body without a status line returned %+v, %v", st, err)
			}
		case wantStatus.State == JobDone && wantStatus.Result == nil:
			if !errors.Is(err, ErrNoResult) || retry.Classify(err) != retry.Terminal {
				t.Fatalf("done status without a result returned %+v, %v; want terminal ErrNoResult", st, err)
			}
		case err != nil || !reflect.DeepEqual(st, *wantStatus):
			t.Fatalf("returned %+v, %v; want the first status line %+v", st, err, *wantStatus)
		}
	})
}

// FuzzImportCheckpoint drives arbitrary ids and bodies through the
// checkpoint import, the receiving half of the fleet's re-park
// hand-off and the one place a request names a file. It must never
// panic and never create a file outside the state dir; a rejected
// import leaves the state dir as it was, and an accepted one adds or
// replaces exactly <id>.ckpt with the body.
func FuzzImportCheckpoint(f *testing.F) {
	for _, seed := range []struct{ id, data string }{
		{"0123456789abcdef", `{"version":2,"graph":"g","seed":1}` + "\n"},
		{"0123456789abcdef", ""},
		{"..%2F..%2Fpwned", "{}"},
		{"../../pwned", "{}"},
		{"0123456789ABCDEF", "{}"},
		{"/etc/0123456789a", "{}"},
		{"", "{}"},
	} {
		f.Add(seed.id, []byte(seed.data))
	}
	root := f.TempDir()
	dir := filepath.Join(root, "state")
	s, err := New(Config{StateDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	// files maps every file under root to its contents.
	files := func(t *testing.T) map[string]string {
		out := map[string]string{}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(p)
			out[p] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, id string, data []byte) {
		before := files(t)
		err := s.ImportCheckpoint(id, data)
		after := files(t)
		if err == nil {
			path := filepath.Join(dir, id+".ckpt")
			if filepath.Dir(path) != dir {
				t.Fatalf("accepted id %q names %s, outside the state dir", id, path)
			}
			before[path] = string(data)
			defer os.Remove(path)
		}
		if !maps.Equal(before, after) {
			t.Fatalf("import of id %q (err %v) left files %v, want %v", id, err, after, before)
		}
	})
}

// FuzzRestoreTable feeds arbitrary bytes to restore as the job table of
// a server whose scheduler never starts, so no solve runs. Restore must
// not panic, and what it restores must be one record per id: no id
// listed twice across the lanes and the settled list, every listed job
// the table's record for its id, every job listed, and every id the key
// of its request.
func FuzzRestoreTable(f *testing.F) {
	req, err := ringReq(4, 1).normalize()
	if err != nil {
		f.Fatal(err)
	}
	g, err := req.Graph.Build()
	if err != nil {
		f.Fatal(err)
	}
	fp := rt.GraphFingerprint(g)
	id := req.key(fp)
	settled := req
	settled.Graph = GraphSpec{}
	table := func(states ...JobState) []byte {
		st := persistedState{Version: persistVersion}
		for _, state := range states {
			pj := persistedJob{ID: id, Request: req, State: state, Priority: req.Priority, Fingerprint: fp}
			switch state {
			case JobDone:
				// A settled record as this tree writes it: no graph.
				pj.Request = settled
				pj.Result = &JobResult{Spins: "+-+-", Value: 4}
			case JobFailed:
				// A settled record as older trees wrote it: the graph, no
				// fingerprint.
				pj.Fingerprint = ""
			}
			st.Jobs = append(st.Jobs, pj)
		}
		data, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(table(JobQueued, JobDone)) // a queued record replaced by a done one
	f.Add(table(JobDone, JobQueued))
	f.Add(table(JobQueued, JobQueued))
	f.Add(table(JobFailed, JobDone, JobRunning))
	f.Add([]byte(`{"version":1,"jobs":[]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"jobs":[{"id":"x","request":{"graph":"3 1\n0 1 1\n"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, jobsFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := newServer(Config{StateDir: dir})
		if err := s.restore(); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		list := func(j *job) {
			if seen[j.id] {
				t.Fatalf("job %s listed twice", j.id)
			}
			seen[j.id] = true
			if s.jobs[j.id] != j {
				t.Fatalf("listed job %s is not the record the table holds for its id", j.id)
			}
		}
		for _, lane := range s.lanes {
			for _, j := range lane {
				list(j)
			}
		}
		for j := s.settled.head; j != nil; j = j.next {
			list(j)
		}
		if len(seen) != len(s.jobs) {
			t.Fatalf("%d jobs restored, %d listed", len(s.jobs), len(seen))
		}
		for id, j := range s.jobs {
			if key := j.req.key(j.fp); key != id || j.id != id {
				t.Fatalf("job %s restored under id %s, its request keys %s", j.id, id, key)
			}
			if j.terminal() {
				continue // a settled job holds no graph
			}
			g, err := j.req.Graph.Build()
			if err != nil {
				t.Fatalf("restored job %s: %v", id, err)
			}
			if got := rt.GraphFingerprint(g); got != j.fp {
				t.Fatalf("queued job %s: graph fingerprint %s, keyed by %s", id, got, j.fp)
			}
		}
	})
}
