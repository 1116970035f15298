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
// or a response that ended early. Stream marks it retryable where it
// creates it: the server's event-replay path lets a re-attached
// subscriber observe the identical sequence, so Follow reconnects on
// it and deduplicates the replayed prefix by sequence number.
var ErrStreamInterrupted = errors.New("serve: event stream interrupted")

// ErrNoResult reports a done status that carries no result: an answer
// no caller can act on. The client refuses it as a terminal error
// wherever it decodes a status, since the same server would give it
// again.
var ErrNoResult = errors.New("serve: done status without a result")

// maxStreamLine bounds one NDJSON line Stream reads. The longest line
// is the terminal status of the largest job serve admits, and it grows
// with the node count. Per node it holds at most:
//
//	  1 B  its spin in result.spins
//	  1 B  its spin in result.problem.spins
//	  8 B  its index in result.problem.selected ("1048575,")
//	502 B  one first-level sub-report, as every sub-graph holds a
//	       node: ≤ 100 B of fixed fields at full-width numbers, the
//	       two attempts of a composite at ≤ 110 B each, and room for
//	       the attempts' error text
//	-----
//	512 B
//
// so maxGraphNodes × 512 B = 2^20 × 2^9 B = 512 MiB. The scanner's
// buffer grows to the longest line actually read, not to this bound.
const maxStreamLine = maxGraphNodes * 512

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
	// Retry shapes the unary calls' retries (Submit, Job, CachePeek,
	// FetchCheckpoint, SeedCheckpoint) and the Follow reconnect loop,
	// which takes the same backoff step (retry.Policy.Backoff). The
	// zero policy performs single attempts (no behavior change);
	// retry.Default(seed) opts into the dispatch-layer defaults. Its
	// AttemptTimeout applies to the unary calls only: streams are
	// unbounded — pass a deadline context to bound a whole Solve.
	// Submissions are idempotent — identical (graph, seed, solver)
	// requests coalesce onto one job server-side — so retrying is
	// always safe.
	Retry retry.Policy
}

// Client sends the job plane it reaches.
var _ JobPlane = (*Client)(nil)

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

// send makes every request of the client: body, when not nil, goes up
// with Content-Type ctype; a 200's body goes to read (nil drains it),
// and any other status comes back as decodeError's *retry.StatusError.
func (c *Client) send(ctx context.Context, method, path, ctype string, body []byte, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if read == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return read(resp.Body)
}

// callJSON sends one request — a body is JSON — and decodes the JSON
// answer, retried under pol; the zero T comes back with an error.
func callJSON[T any](ctx context.Context, c *Client, pol retry.Policy, method, path string, body []byte) (T, error) {
	var out, zero T
	err := pol.Do(ctx, func(actx context.Context) error {
		out = zero
		return c.send(actx, method, path, "application/json", body, func(r io.Reader) error {
			return json.NewDecoder(r).Decode(&out)
		})
	})
	if err != nil {
		return zero, err
	}
	return out, nil
}

// callStatus is callJSON for the unary calls that answer a job status
// under the client's policy; a status checkStatus refuses comes back as
// its error.
func callStatus(ctx context.Context, c *Client, method, path string, body []byte) (JobStatus, error) {
	st, err := callJSON[JobStatus](ctx, c, c.Retry, method, path, body)
	if err == nil {
		err = checkStatus(st)
	}
	if err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// checkStatus refuses a status no caller can act on: a done job
// without its result.
func checkStatus(st JobStatus) error {
	if st.State == JobDone && st.Result == nil {
		return retry.MarkTerminal(fmt.Errorf("%w: job %s", ErrNoResult, st.ID))
	}
	return nil
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
	return callStatus(ctx, c, http.MethodPost, "/v1/solve", body)
}

// Job fetches one job's status snapshot, retrying transient failures
// under the client's policy.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	return callStatus(ctx, c, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Stream follows the job's NDJSON event stream ONCE, invoking onEvent
// for every progress line (nil is allowed), and returns the terminal
// status line once the job settles. A job parked by a server drain
// returns with State == JobQueued; resubscribe after the server
// restarts to follow the resumed run. A mid-stream disconnect — the
// connection torn before the status line — returns a retryable error
// wrapping ErrStreamInterrupted; Follow is the reconnecting variant.
// A status line checkStatus refuses is a terminal error.
func (c *Client) Stream(ctx context.Context, id string, onEvent func(Event)) (JobStatus, error) {
	var st JobStatus
	err := c.send(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", "", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, maxStreamLine)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var sl StreamLine
			if err := json.Unmarshal(line, &sl); err != nil {
				// A torn NDJSON line: the connection died mid-write. The
				// replayed stream will deliver the complete line. The
				// error quotes its first 256 bytes only, as a status line
				// may run to hundreds of MiB.
				return interrupted(id, fmt.Sprintf("bad stream line %.256q", line))
			}
			if sl.Event != nil && onEvent != nil {
				onEvent(*sl.Event)
			}
			if sl.Status != nil {
				st = *sl.Status
				return checkStatus(st)
			}
		}
		if ctx.Err() != nil {
			// The caller hung up; that is not an interruption to retry.
			return ctx.Err()
		}
		if err := sc.Err(); err != nil {
			return interrupted(id, err.Error())
		}
		return interrupted(id, "stream ended without a status line")
	})
	if err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// interrupted is the retryable ErrStreamInterrupted of job id.
func interrupted(id, why string) error {
	return retry.MarkRetryable(fmt.Errorf("%w: job %s: %s", ErrStreamInterrupted, id, why))
}

// Follow streams a job to its settled status, reconnecting through
// mid-stream disconnects: every re-attach replays the event prefix
// (the server guarantees an identical sequence to every subscriber)
// and Follow deduplicates by Event.Seq, so onEvent observes each
// event exactly once, in order, across any number of reconnects.
// Reconnects take the client policy's backoff step; receiving new
// events counts as progress and refreshes the attempt budget.
func (c *Client) Follow(ctx context.Context, id string, onEvent func(Event)) (JobStatus, error) {
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
		if progressed {
			attempt = 0
		}
		attempt++
		if err := c.Retry.Backoff(ctx, attempt, err); err != nil {
			return JobStatus{}, err
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
	st, err := callStatus(ctx, c, http.MethodGet, "/v1/cache/"+id, nil)
	if err != nil {
		return JobStatus{}, false, ignoreNotFound(err)
	}
	return st, true, nil
}

// ignoreNotFound turns a 404 answer into nil: the ok=false of a peek.
func ignoreNotFound(err error) error {
	var se *retry.StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		return nil
	}
	return err
}

// FetchCheckpoint downloads the raw checkpoint bytes of a job — the
// donor half of the fleet's re-park hand-off. ErrNotFound-shaped 404s
// (job unknown, no checkpoint written) surface as ok=false. A body
// over maxCheckpointImport, which no receiver would take, is refused.
func (c *Client) FetchCheckpoint(ctx context.Context, id string) ([]byte, bool, error) {
	var data []byte
	err := c.Retry.Do(ctx, func(actx context.Context) error {
		return c.send(actx, http.MethodGet, "/v1/jobs/"+id+"/checkpoint", "", nil, func(r io.Reader) (err error) {
			data, err = io.ReadAll(io.LimitReader(r, maxCheckpointImport+1))
			if err == nil && len(data) > maxCheckpointImport {
				err = fmt.Errorf("serve: checkpoint of job %s over %d bytes", id, maxCheckpointImport)
			}
			return err
		})
	})
	if err != nil {
		return nil, false, ignoreNotFound(err)
	}
	return data, true, nil
}

// SeedCheckpoint uploads checkpoint bytes for a job id before it is
// (re)submitted to this server — the receiver half of the re-park
// hand-off. Safe to retry: the server installs the checkpoint with an
// atomic rename.
func (c *Client) SeedCheckpoint(ctx context.Context, id string, data []byte) error {
	return c.Retry.Do(ctx, func(actx context.Context) error {
		return c.send(actx, http.MethodPut, "/v1/jobs/"+id+"/checkpoint", "application/octet-stream", data, nil)
	})
}

// Health fetches /healthz: the server's liveness/drain state, in one
// attempt whatever the client's policy (a health probe that needs
// retries IS the signal).
func (c *Client) Health(ctx context.Context) (map[string]string, error) {
	return callJSON[map[string]string](ctx, c, retry.Policy{}, http.MethodGet, "/healthz", nil)
}
