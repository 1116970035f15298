package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qaoa2/internal/retry"
)

// ErrStreamInterrupted reports an event stream that died before its
// terminal status line — a mid-stream disconnect, a torn NDJSON line,
// or a response that ended early. It is retryable: the server's
// event-replay path lets a re-attached subscriber observe the
// identical sequence, so Follow reconnects on it and deduplicates the
// replayed prefix by sequence number.
var ErrStreamInterrupted = errors.New("serve: event stream interrupted")

// Client is the Go API against a running qaoa2d daemon (or any
// Server.Handler). The zero HTTP client is replaced by
// http.DefaultClient. The zero value of every fault-tolerance knob
// preserves the historical single-attempt behavior.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8817".
	Base string
	// HTTP overrides the transport (tests inject httptest clients and
	// fault-injecting round-trippers).
	HTTP *http.Client
	// Retry shapes Submit/Job retries and the Follow reconnect loop.
	// The zero policy performs single attempts (no behavior change);
	// retry.Default(seed) opts into the dispatch-layer defaults. Its
	// AttemptTimeout bounds each unary call; streams are unbounded —
	// pass a deadline context to bound a whole Solve. Its Breaker,
	// when set, gates every request so a dead daemon fails fast
	// instead of stalling each call through the full retry budget:
	// share one breaker per daemon across clients and leaves.
	// Submissions are idempotent — identical (graph, seed, solver)
	// requests coalesce onto one job server-side — so retrying is
	// always safe.
	Retry retry.Policy
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

// decodeError maps a non-2xx response to a typed status error the
// retry classifier understands (5xx/429 retryable, 4xx terminal),
// honoring a Retry-After hint when the server sent one.
func decodeError(resp *http.Response) error {
	var body errorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	msg := ""
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		msg = body.Error
	} else {
		msg = "serve: " + strings.TrimSpace(string(data))
	}
	se := &retry.StatusError{Code: resp.StatusCode, Msg: msg}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		se.RetryAfter = time.Duration(secs) * time.Second
	}
	return se
}

// getJSON performs one GET and decodes the JSON response.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts one solve request and returns the job's status —
// possibly already complete (Cached) or attached to an in-flight
// duplicate (Coalesced). Transient failures retry under the client's
// policy; a retried submission coalesces onto the original job, so
// duplicated delivery is harmless.
func (c *Client) Submit(ctx context.Context, req SolveRequest) (JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	err = c.Retry.Do(ctx, func(actx context.Context) error {
		hreq, err := http.NewRequestWithContext(actx, http.MethodPost, c.url("/v1/solve"), bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	if err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Job fetches one job's status snapshot, retrying transient failures
// under the client's policy.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.Retry.Do(ctx, func(actx context.Context) error {
		st = JobStatus{}
		return c.getJSON(actx, "/v1/jobs/"+id, &st)
	})
	if err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Stream follows the job's NDJSON event stream ONCE, invoking onEvent
// for every progress line (nil is allowed), and returns the terminal
// status line once the job settles. A job parked by a server drain
// returns with State == JobQueued; resubscribe after the server
// restarts to follow the resumed run. A mid-stream disconnect — the
// connection torn before the status line — returns an error wrapping
// ErrStreamInterrupted; Follow is the reconnecting variant.
func (c *Client) Stream(ctx context.Context, id string, onEvent func(Event)) (JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/events"), nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var sl StreamLine
		if err := json.Unmarshal(line, &sl); err != nil {
			// A torn NDJSON line: the connection died mid-write. The
			// replayed stream will deliver the complete line.
			return JobStatus{}, fmt.Errorf("%w: job %s: bad stream line %q", ErrStreamInterrupted, id, line)
		}
		if sl.Event != nil && onEvent != nil {
			onEvent(*sl.Event)
		}
		if sl.Status != nil {
			return *sl.Status, nil
		}
	}
	if ctx.Err() != nil {
		// The caller hung up; that is not an interruption to retry.
		return JobStatus{}, ctx.Err()
	}
	if err := sc.Err(); err != nil {
		return JobStatus{}, fmt.Errorf("%w: job %s: %v", ErrStreamInterrupted, id, err)
	}
	return JobStatus{}, fmt.Errorf("%w: job %s: stream ended without a status line", ErrStreamInterrupted, id)
}

// Follow streams a job to its settled status, reconnecting through
// mid-stream disconnects: every re-attach replays the event prefix
// (the server guarantees an identical sequence to every subscriber)
// and Follow deduplicates by Event.Seq, so onEvent observes each
// event exactly once, in order, across any number of reconnects.
// Reconnect attempts draw from the client's retry policy; receiving
// new events counts as progress and refreshes the attempt budget.
func (c *Client) Follow(ctx context.Context, id string, onEvent func(Event)) (JobStatus, error) {
	pol := c.Retry
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	lastSeq, attempt := 0, 0
	for {
		progressed := false
		st, err := c.Stream(ctx, id, func(ev Event) {
			if ev.Seq > lastSeq || ev.Seq == 0 {
				if ev.Seq > lastSeq {
					lastSeq = ev.Seq
				}
				progressed = true
				if onEvent != nil {
					onEvent(ev)
				}
			}
		})
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return JobStatus{}, err
		}
		retryable := errors.Is(err, ErrStreamInterrupted)
		if !retryable {
			if cl := pol.Classify; cl != nil {
				retryable = cl(err) == retry.Retryable
			} else {
				retryable = retry.Classify(err) == retry.Retryable
			}
		}
		if !retryable {
			return JobStatus{}, err
		}
		if progressed {
			attempt = 0
		}
		attempt++
		if attempt >= attempts {
			if attempts == 1 {
				return JobStatus{}, err
			}
			return JobStatus{}, fmt.Errorf("%w after %d attempts: %w", retry.ErrExhausted, attempt, err)
		}
		// Honor a server Retry-After hint when it exceeds the backoff
		// schedule: a draining daemon or a deep queue knows its own
		// recovery horizon better than our exponential curve does.
		// Policy.Do already does this for unary calls; the reconnect
		// loop must match, or Follow hammers a congested server at
		// whatever cadence the jittered curve happens to pick.
		delay := pol.Delay(attempt)
		var se *retry.StatusError
		if errors.As(err, &se) && se.RetryAfter > delay {
			delay = se.RetryAfter
		}
		if serr := pol.Sleep; serr != nil {
			if e := serr(ctx, delay); e != nil {
				return JobStatus{}, err
			}
		} else {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return JobStatus{}, err
			}
			t.Stop()
		}
	}
}

// Solve is the synchronous convenience: submit, then follow the event
// stream (reconnecting through drops) until the job settles. Cached
// results return immediately.
func (c *Client) Solve(ctx context.Context, req SolveRequest, onEvent func(Event)) (JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return JobStatus{}, err
	}
	if st.State == JobDone || st.State == JobFailed {
		return st, nil
	}
	return c.Follow(ctx, st.ID, onEvent)
}

// CachePeek asks whether this server already holds a completed result
// for the fingerprint job id. ok is false when it does not (the 404
// is not an error — it is the expected answer for a cold cache); any
// other failure surfaces as err after the client's retry policy.
func (c *Client) CachePeek(ctx context.Context, id string) (JobStatus, bool, error) {
	var st JobStatus
	err := c.Retry.Do(ctx, func(actx context.Context) error {
		st = JobStatus{}
		return c.getJSON(actx, "/v1/cache/"+id, &st)
	})
	if err != nil {
		var se *retry.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return JobStatus{}, false, nil
		}
		return JobStatus{}, false, err
	}
	return st, true, nil
}

// FetchCheckpoint downloads the raw checkpoint bytes of a job — the
// donor half of the fleet's re-park hand-off. ErrNotFound-shaped 404s
// (job unknown, no checkpoint written) surface as ok=false.
func (c *Client) FetchCheckpoint(ctx context.Context, id string) ([]byte, bool, error) {
	var data []byte
	err := c.Retry.Do(ctx, func(actx context.Context) error {
		hreq, err := http.NewRequestWithContext(actx, http.MethodGet, c.url("/v1/jobs/"+id+"/checkpoint"), nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		data, err = io.ReadAll(resp.Body)
		return err
	})
	if err != nil {
		var se *retry.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	return data, true, nil
}

// SeedCheckpoint uploads checkpoint bytes for a job id before it is
// (re)submitted to this server — the receiver half of the re-park
// hand-off. Safe to retry: the server installs the checkpoint with an
// atomic rename.
func (c *Client) SeedCheckpoint(ctx context.Context, id string, data []byte) error {
	return c.Retry.Do(ctx, func(actx context.Context) error {
		hreq, err := http.NewRequestWithContext(actx, http.MethodPut, c.url("/v1/jobs/"+id+"/checkpoint"), bytes.NewReader(data))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/octet-stream")
		resp, err := c.http().Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		io.Copy(io.Discard, resp.Body)
		return nil
	})
}

// Health fetches /healthz: the server's liveness/drain state. The
// fleet's health checker calls this under its per-worker breaker; no
// client-side retry (a health probe that needs retries IS the signal).
func (c *Client) Health(ctx context.Context) (map[string]string, error) {
	var body map[string]string
	if err := c.getJSON(ctx, "/healthz", &body); err != nil {
		return nil, err
	}
	return body, nil
}
