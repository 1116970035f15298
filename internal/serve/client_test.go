package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qaoa2/internal/faults"
	"qaoa2/internal/retry"
	rt "qaoa2/internal/runtime"
)

// fastRetry is a test policy: real retries, negligible delays.
func fastRetry(attempts int) retry.Policy {
	return retry.Policy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Seed:        1,
	}
}

// eventsOnly routes the NDJSON event streams through mw and every
// other endpoint straight to inner, so chaos hits exactly one plane.
func eventsOnly(inner, mw http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			mw.ServeHTTP(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// TestStreamInterruptedTyped pins the typed mid-stream failure: a
// connection cut before the status line surfaces as an error wrapping
// ErrStreamInterrupted (satellite: callers can errors.Is on it), while
// a caller hang-up stays a context error.
func TestStreamInterruptedTyped(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := faults.New(1).Site("events", faults.Site{P: 1, Classes: []faults.Class{faults.Truncate}, TruncateAfter: 40})
	hs := httptest.NewServer(eventsOnly(s.Handler(), in.Middleware("events", s.Handler())))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	ctx := context.Background()

	st, err := c.Submit(ctx, erReq(40, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, st.ID, nil); !errors.Is(err, ErrStreamInterrupted) {
		t.Fatalf("cut stream returned %v, want ErrStreamInterrupted", err)
	}

	// Canceling the caller is not an interruption.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Stream(cctx, st.ID, nil); errors.Is(err, ErrStreamInterrupted) {
		t.Fatalf("canceled stream claimed interruption: %v", err)
	}
}

// TestFollowReconnectsThroughCuts is the stream-resume acceptance
// test: with the server tearing event streams mid-NDJSON-line, Follow
// reconnects, the server-side replay re-delivers the prefix, and the
// Seq dedupe hands the caller the exact same gap-free sequence a
// fault-free subscriber sees — plus the terminal status.
func TestFollowReconnectsThroughCuts(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := faults.New(3).Site("events", faults.Site{P: 0.7, Classes: []faults.Class{faults.Truncate}, TruncateAfter: 300})
	chaos := httptest.NewServer(eventsOnly(s.Handler(), in.Middleware("events", s.Handler())))
	defer chaos.Close()
	clean := httptest.NewServer(s.Handler())
	defer clean.Close()

	c := &Client{Base: chaos.URL, HTTP: chaos.Client(), Retry: fastRetry(8)}
	var got []Event
	st, err := c.Solve(context.Background(), erReq(40, 8, 12), func(ev Event) { got = append(got, ev) })
	if err != nil {
		t.Fatalf("Solve through stream cuts: %v", err)
	}
	if st.State != JobDone || st.Result == nil {
		t.Fatalf("terminal status %+v", st)
	}
	if in.Faults() == 0 {
		t.Fatal("chaos run injected nothing; the test proved nothing")
	}

	// The deduped sequence is gap-free and strictly ordered.
	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d: replay dedupe failed", i, ev.Seq)
		}
	}
	// And identical to what a fault-free replay subscriber observes.
	ref, fin, err := collectStream(&Client{Base: clean.URL, HTTP: clean.Client()}, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone || fmt.Sprint(ref) != fmt.Sprint(got) {
		t.Fatalf("chaos subscriber diverged from clean replay:\n%v\nvs\n%v", got, ref)
	}
}

// TestSubmitRetriesTransportFaults: client-side connection
// refusals/resets are absorbed by the retry policy, and the retried
// submission coalesces — the server still runs exactly one job.
func TestSubmitRetriesTransportFaults(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	in := faults.New(5).Site("client", faults.Site{P: 0.5, Classes: []faults.Class{faults.Refuse, faults.Reset}})
	c := &Client{
		Base:  hs.URL,
		HTTP:  &http.Client{Transport: in.Transport("client", hs.Client().Transport)},
		Retry: fastRetry(8),
	}
	ctx := context.Background()
	st, err := c.Solve(ctx, ringReq(10, 91), nil)
	if err != nil {
		t.Fatalf("solve through transport faults: %v", err)
	}
	if st.State != JobDone || st.Result == nil {
		t.Fatalf("status %+v", st)
	}
	if in.Faults() == 0 {
		t.Fatal("no transport faults fired; pick a different seed")
	}
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Fatalf("retried submissions created %d jobs, want 1 (idempotent coalescing)", len(jobs))
	}
}

// TestDecodeErrorTyped pins the wire → retry-classification bridge: a
// draining daemon's 503 surfaces as *retry.StatusError carrying the
// Retry-After hint, classified retryable; an unknown job's 404 is
// terminal; and the legacy message shape ("... (HTTP nnn)") survives.
func TestDecodeErrorTyped(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()} // zero policy: raw single-attempt errors
	ctx := context.Background()

	s.Drain()
	_, err = c.Submit(ctx, ringReq(8, 1))
	var se *retry.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("draining submit returned %T (%v), want *retry.StatusError", err, err)
	}
	// The drain just started, so the hint is the full default
	// DrainGrace (5s), rounded up to whole seconds — not the old
	// hard-coded 1s.
	if se.Code != http.StatusServiceUnavailable || se.RetryAfter != 5*time.Second {
		t.Fatalf("got code %d retry-after %v, want 503 with 5s hint", se.Code, se.RetryAfter)
	}
	if retry.Classify(err) != retry.Retryable {
		t.Fatal("503 classified terminal")
	}
	if !strings.Contains(err.Error(), "(HTTP 503)") {
		t.Fatalf("error text %q lost the legacy shape", err)
	}

	_, err = c.Job(ctx, "nope")
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown job returned %v", err)
	}
	if retry.Classify(err) != retry.Terminal {
		t.Fatal("404 classified retryable")
	}
}

// TestStreamReadsLargeJobStatus streams the terminal status line of a
// job at the node bound serve admits: a perfect matching on
// maxGraphNodes nodes solved with "random" leaves at 16 qubits, which
// the daemon finishes with one spin per node and one two-node
// sub-report per matched pair. The line is ~26 MiB; a client that
// reads lines only up to 1 MiB fails it with "token too long" although
// the job is done.
func TestStreamReadsLargeJobStatus(t *testing.T) {
	reports := make([]rt.SubReport, maxGraphNodes/2)
	for i := range reports {
		reports[i] = rt.SubReport{Nodes: 2, Edges: 1, Value: 1, Solver: "random"}
	}
	want := JobStatus{ID: "0123456789abcdef", State: JobDone, Priority: PriorityNormal, Result: &JobResult{
		Spins:     strings.Repeat("+-", maxGraphNodes/2),
		Value:     maxGraphNodes / 2,
		SubGraphs: len(reports),
		IntraCut:  maxGraphNodes / 2,
		Reports:   reports,
	}}
	line, err := json.Marshal(StreamLine{Status: &want})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: "http://stream.test", HTTP: &http.Client{Transport: bodyTransport(append(line, '\n'))}}
	st, err := c.Stream(context.Background(), want.ID, nil)
	if err != nil {
		t.Fatalf("%d-byte status line: %v", len(line), err)
	}
	if st.State != JobDone || len(st.Result.Spins) != maxGraphNodes || len(st.Result.Reports) != len(reports) {
		t.Fatalf("got state %s, %d spins, %d reports", st.State, len(st.Result.Spins), len(st.Result.Reports))
	}
}

// TestFetchCheckpointBounded: the donor side of the re-park hand-off
// takes a checkpoint up to maxCheckpointImport, the bound the receiver
// enforces, and refuses a longer body instead of reading whatever a
// worker sends.
func TestFetchCheckpointBounded(t *testing.T) {
	var size atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(w, io.LimitReader(spaces{}, size.Load()))
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}

	size.Store(maxCheckpointImport)
	if data, ok, err := c.FetchCheckpoint(context.Background(), "0123456789abcdef"); err != nil || !ok || len(data) != maxCheckpointImport {
		t.Fatalf("checkpoint at the bound: %d bytes, ok=%v, %v; want all of it", len(data), ok, err)
	}
	size.Store(maxCheckpointImport + 1)
	if data, ok, err := c.FetchCheckpoint(context.Background(), "0123456789abcdef"); err == nil || ok || data != nil {
		t.Fatalf("checkpoint one byte over the bound: %d bytes, ok=%v, %v; want a refusal", len(data), ok, err)
	}
}

// TestClientRefusesDoneWithoutResult: a server whose every status is
// done without a result — the unary answers and the stream's status
// line — gets a terminal ErrNoResult from each call, after one request
// each despite a three-attempt policy.
func TestClientRefusesDoneWithoutResult(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		const st = `{"id":"abc","state":"done"}`
		if strings.HasSuffix(r.URL.Path, "/events") {
			fmt.Fprintln(w, `{"status":`+st+`}`)
			return
		}
		fmt.Fprintln(w, st)
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, Retry: fastRetry(3)}
	ctx := context.Background()
	calls := map[string]func() error{
		"Submit": func() error { _, err := c.Submit(ctx, SolveRequest{}); return err },
		"Job":    func() error { _, err := c.Job(ctx, "abc"); return err },
		"CachePeek": func() error {
			_, ok, err := c.CachePeek(ctx, "abc")
			if ok {
				return errors.New("ok")
			}
			return err
		},
		"Stream": func() error { _, err := c.Stream(ctx, "abc", nil); return err },
		"Follow": func() error { _, err := c.Follow(ctx, "abc", nil); return err },
	}
	for name, call := range calls {
		hits.Store(0)
		err := call()
		if !errors.Is(err, ErrNoResult) || retry.Classify(err) != retry.Terminal {
			t.Errorf("%s: %v, want a terminal ErrNoResult", name, err)
		}
		if n := hits.Load(); n != 1 {
			t.Errorf("%s: %d requests, want 1: a terminal refusal is not retried", name, n)
		}
	}
}
