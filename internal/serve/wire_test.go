package serve

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// nanosField matches the one run-dependent number on the wire: wall
// time, of a task (Event.Nanos) or of a composite member
// (Attempt.Nanos).
var nanosField = regexp.MustCompile(`"nanos":[0-9]+`)

// wantSubSolveLine and wantStatusLine pin the NDJSON bytes of a solve
// through the "best" composite: a sub-solve event with its attempts,
// and the terminal status line of the done job, reports and attempts
// included. Only wall times are masked.
const (
	wantSubSolveLine = `{"event":{"seq":2,"task":"s0/sub0","kind":"sub-solve","stage":0,"index":0,"nodes":4,"edges":3,"value":3,"solver":"qaoa","attempts":[{"solver":"qaoa","value":3,"nanos":N},{"solver":"gw","value":0,"nanos":N,"err":"skipped:optimal"}],"nanos":N}}`
	wantStatusLine   = `{"status":{"id":"baaac9dd80598924","state":"done","priority":"normal","parallelism":1,"events":7,"restores":0,"result":{"spins":"+-++--+--+","value":10,"levels":1,"subGraphs":3,"intraCut":7,"crossCut":3,"reports":[{"nodes":4,"edges":3,"value":3,"solver":"qaoa","attempts":[{"solver":"qaoa","value":3,"nanos":N},{"solver":"gw","value":0,"nanos":N,"err":"skipped:optimal"}]},{"nodes":2,"edges":1,"value":1,"solver":"qaoa","attempts":[{"solver":"qaoa","value":1,"nanos":N},{"solver":"gw","value":0,"nanos":N,"err":"skipped:optimal"}]},{"nodes":4,"edges":3,"value":3,"solver":"qaoa","attempts":[{"solver":"qaoa","value":3,"nanos":N},{"solver":"gw","value":0,"nanos":N,"err":"skipped:optimal"}]}]}}}`
)

// TestWireBytesPinned: the event and status records stream with the
// field names, order and omissions clients already parse.
func TestWireBytesPinned(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	spec := GraphSpec{Nodes: 10}
	for i := 0; i < 10; i++ {
		base := i / 5 * 5
		spec.Edges = append(spec.Edges, EdgeSpec{I: i, J: base + (i+1)%5, W: 1})
	}
	spec.Edges = append(spec.Edges, EdgeSpec{I: 0, J: 5, W: 1}, EdgeSpec{I: 2, J: 8, W: 1})
	for k := range spec.Edges {
		if e := &spec.Edges[k]; e.I > e.J {
			e.I, e.J = e.J, e.I
		}
	}
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	st, err := c.Submit(context.Background(), SolveRequest{Graph: spec, MaxQubits: 5, Solver: "best", Merge: "gw", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, nanosField.ReplaceAllString(sc.Text(), `"nanos":N`))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 3 {
		t.Fatalf("stream too short: %q", lines)
	}
	if lines[1] != wantSubSolveLine {
		t.Errorf("sub-solve event line\n got %s\nwant %s", lines[1], wantSubSolveLine)
	}
	if last := lines[len(lines)-1]; last != wantStatusLine {
		t.Errorf("status line\n got %s\nwant %s", last, wantStatusLine)
	}
	if !strings.Contains(strings.Join(lines, "\n"), `"kind":"stitch"`) {
		t.Error("stream carries no stitch event")
	}
}
