package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"qaoa2/internal/retry"
)

// StreamLine is one NDJSON line of GET /v1/jobs/{id}/events: either a
// progress event or the terminal status (always the last line).
type StreamLine struct {
	Event  *Event     `json:"event,omitempty"`
	Status *JobStatus `json:"status,omitempty"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// maxCheckpointImport bounds a checkpoint body on both sides of the
// fleet's re-park hand-off: PUT /v1/jobs/{id}/checkpoint answers 413
// past it and Client.FetchCheckpoint refuses a longer download. A
// checkpoint line is ~100 bytes per task, so 64 MiB is orders of
// magnitude past any real solve.
const maxCheckpointImport = 64 << 20

// MaxSolveBody bounds POST /v1/solve bodies, here and at the fleet
// front door that forwards them. The decoder buffers a
// whole request before anything validates it, so the bound is what a
// hostile client can make the server hold per connection. An edge of
// the text form takes 7 to 33 bytes of JSON (from "0 1 1\n" to
// five-digit endpoints and a 17-digit weight), so 16 MiB holds the
// edge bound of 2^20 at unit weight and 500 000 edges at full
// precision: ER(2500, 0.1), past the largest graph of the paper's
// Fig. 4, and the largest Gset instance (G81, 40 000 edges) more than
// ten times over. The object form takes ~26 to ~45 bytes an edge.
const MaxSolveBody = 16 << 20

// JobPlane is the job API every door answers and Client sends: a
// Server (through a ctx-taking shim), the fleet Coordinator, and
// Client itself implement it, and JobMux serves any of them.
type JobPlane interface {
	// Submit admits one solve request.
	Submit(ctx context.Context, req SolveRequest) (JobStatus, error)
	// Job is one job's status snapshot.
	Job(ctx context.Context, id string) (JobStatus, error)
	// CachePeek reports a done job's status; ok is false, with a nil
	// error, when no result is held.
	CachePeek(ctx context.Context, id string) (st JobStatus, ok bool, err error)
	// Follow hands every event of the job to onEvent in order, the
	// recorded prefix first, and returns the status the job settles in.
	Follow(ctx context.Context, id string, onEvent func(Event)) (JobStatus, error)
	// Health is the /healthz body, a flat string map with "status".
	Health(ctx context.Context) (map[string]string, error)
}

// JobMux serves p's job plane, the wire surface a daemon and a fleet
// front door share:
//
//	POST /v1/solve             submit a SolveRequest → JobStatus
//	GET  /v1/jobs/{id}         one job's status (result when done)
//	GET  /v1/jobs/{id}/events  NDJSON progress stream (replay + live)
//	GET  /v1/cache/{id}        result-cache peek (done jobs only; 404 otherwise)
//	GET  /healthz              liveness/drain state
//
// Every error answers through statusOf. gateway is nil at a server;
// a coordinator passes the status of its own failures there. The
// caller adds its own routes to the returned mux.
func JobMux(p JobPlane, gateway func(error) int) *http.ServeMux {
	h := jobRoutes{p, gateway}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", h.solve)
	mux.HandleFunc("GET /v1/jobs/{id}", h.job)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("GET /v1/cache/{id}", h.cachePeek)
	mux.HandleFunc("GET /healthz", h.health)
	return mux
}

// Handler returns the daemon's HTTP API: the JobMux routes and
//
//	GET  /v1/jobs                  list all jobs
//	GET  /v1/jobs/{id}/checkpoint  raw checkpoint bytes (fleet re-park donor)
//	PUT  /v1/jobs/{id}/checkpoint  seed a checkpoint (fleet re-park receiver)
//
// A submission over MaxSolveBody, maxGraphNodes or maxGraphEdges gets
// 413, a full queue 429 and a draining server 503, both with a
// Retry-After derived from the server's state; every other refusal
// gets 400.
func (s *Server) Handler() http.Handler {
	mux := JobMux(plane{s}, nil)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpointGet)
	mux.HandleFunc("PUT /v1/jobs/{id}/checkpoint", s.handleCheckpointPut)
	return mux
}

// plane is a Server as a JobPlane: the Server's own Submit, Job and
// CachePeek take no context, and its refusals under back-pressure
// carry the Retry-After hint only the server can derive.
type plane struct{ *Server }

func (p plane) Submit(_ context.Context, req SolveRequest) (JobStatus, error) {
	st, err := p.Server.Submit(req)
	if err != nil {
		err = hinted{err, p.retryAfterHint(err)}
	}
	return st, err
}

func (p plane) Job(_ context.Context, id string) (JobStatus, error) { return p.Server.Job(id) }

func (p plane) CachePeek(_ context.Context, id string) (JobStatus, bool, error) {
	st, ok := p.Server.CachePeek(id)
	return st, ok, nil
}

func (p plane) Health(context.Context) (map[string]string, error) {
	state := "ok"
	if p.Draining() {
		state = "draining"
	}
	body := map[string]string{"status": state}
	if err := p.PersistErr(); err != nil {
		body["persistError"] = err.Error()
	}
	return body, nil
}

// hinted carries the Retry-After seconds of a back-pressure refusal
// (0 for any other error) to statusOf.
type hinted struct {
	error
	secs int
}

func (h hinted) Unwrap() error { return h.error }

// statusOf is the one error-to-status mapping of every door, with the
// Retry-After seconds a 429 or 503 carries:
//
//	413   a body or an instance over its bound
//	code  a worker's *retry.StatusError, code and hint passed through
//	429   queue full, 503 draining, with the server's hint
//	404   no such job
//	400   any other refusal at a server
//
// At a coordinator, gateway(err) decides the errors no row names: its
// own gateway failures (502, or 503 with no live worker) and its
// refusals (400).
func statusOf(err error, gateway func(error) int) (code, retryAfter int) {
	var tooLarge *http.MaxBytesError
	var se *retry.StatusError
	var h hinted
	switch {
	case errors.As(err, &tooLarge), errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge, 0
	case errors.As(err, &se):
		return se.Code, int(se.RetryAfter / time.Second)
	case errors.Is(err, ErrQueueFull):
		errors.As(err, &h)
		return http.StatusTooManyRequests, h.secs
	case errors.Is(err, ErrDraining):
		errors.As(err, &h)
		return http.StatusServiceUnavailable, h.secs
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, 0
	case gateway != nil:
		return gateway(err), 0
	}
	return http.StatusBadRequest, 0
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError answers err with its statusOf code and the JSON error
// envelope. A hint goes out as Retry-After, so clients honoring it
// (retry.Classify does) back off as long as the real congestion needs
// instead of hammering a full queue every second.
func writeError(w http.ResponseWriter, err error, gateway func(error) int) {
	code, retryAfter := statusOf(err, gateway)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// jobRoutes is the one set of job-plane handlers (see JobMux).
type jobRoutes struct {
	p       JobPlane
	gateway func(error) int
}

// answer writes v, or err through the shared mapping.
func (h jobRoutes) answer(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeError(w, err, h.gateway)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (h jobRoutes) solve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSolveBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// A body that does not decode is the request's fault at every
		// door, gateway or not.
		writeError(w, fmt.Errorf("serve: bad request body: %w", err), nil)
		return
	}
	st, err := h.p.Submit(r.Context(), req)
	h.answer(w, st, err)
}

func (h jobRoutes) job(w http.ResponseWriter, r *http.Request) {
	st, err := h.p.Job(r.Context(), r.PathValue("id"))
	h.answer(w, st, err)
}

// cachePeek answers "does this door already hold this result?"
// without side effects: fingerprint job ids are location-independent,
// so the fleet front door asks every worker's cache before routing a
// fresh submission. 404 unless the job is done (including evicted
// done jobs remembered by tombstone).
func (h jobRoutes) cachePeek(w http.ResponseWriter, r *http.Request) {
	st, ok, err := h.p.CachePeek(r.Context(), r.PathValue("id"))
	if err == nil && !ok {
		err = ErrNotFound
	}
	h.answer(w, st, err)
}

// events streams a job's progress as NDJSON, the settled status as
// the last line. The plane's Follow runs on a goroutine of its own and
// hands the events over; the handler writes them and flushes whenever
// it has caught up, so a batch of events the plane delivers together
// goes out in one write and a lone event goes out at once. The 200
// goes out with the first line, so a failure before it (an unknown
// job above all) still answers with its status; a failure after it
// tears the connection, and the subscriber's Follow reconnects.
func (h jobRoutes) events(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	evs := make(chan Event, 16)
	var st JobStatus
	var err error
	go func() {
		defer close(evs)
		st, err = h.p.Follow(ctx, r.PathValue("id"), func(ev Event) {
			select {
			case evs <- ev:
			case <-ctx.Done():
			}
		})
	}()
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	wrote := false
	write := func(l *StreamLine) {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		enc.Encode(l)
	}
	var ev Event
	line := StreamLine{Event: &ev}
	for ev = range evs {
		write(&line)
		if len(evs) == 0 {
			rc.Flush()
		}
	}
	switch {
	case err == nil:
		write(&StreamLine{Status: &st})
		rc.Flush()
	case !wrote:
		writeError(w, err, h.gateway)
	}
}

func (h jobRoutes) health(w http.ResponseWriter, r *http.Request) {
	body, err := h.p.Health(r.Context())
	h.answer(w, body, err)
}

// handleCheckpointGet serves the raw checkpoint of a parked or
// running-adjacent job — the donor half of the fleet's re-park
// hand-off.
func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	data, err := s.CheckpointData(r.PathValue("id"))
	if err != nil {
		writeError(w, err, nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleCheckpointPut seeds a checkpoint for a job id before it is
// (re)submitted here — the receiver half of the re-park hand-off. A
// body over maxCheckpointImport is refused with 413 and writes nothing.
func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCheckpointImport))
	if err != nil {
		writeError(w, fmt.Errorf("serve: read checkpoint body: %w", err), nil)
		return
	}
	if err := s.ImportCheckpoint(r.PathValue("id"), data); err != nil {
		writeError(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "imported"})
}
