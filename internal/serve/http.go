package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
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

// maxCheckpointImport bounds PUT /v1/jobs/{id}/checkpoint bodies: a
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

// Handler returns the HTTP API:
//
//	POST /v1/solve          submit a SolveRequest → JobStatus
//	GET  /v1/jobs           list all jobs
//	GET  /v1/jobs/{id}      one job's status (result when done)
//	GET  /v1/jobs/{id}/events  NDJSON progress stream (replay + live)
//	GET  /v1/cache/{id}     result-cache peek (done jobs only; 404 otherwise)
//	GET  /v1/jobs/{id}/checkpoint  raw checkpoint bytes (fleet re-park donor)
//	PUT  /v1/jobs/{id}/checkpoint  seed a checkpoint (fleet re-park receiver)
//	GET  /healthz           liveness/drain state
//
// Submission errors map to 400 (bad request), 413 (body over
// MaxSolveBody, or an instance over maxGraphNodes / maxGraphEdges),
// 429 (queue full) and 503 (draining).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cache/{id}", s.handleCachePeek)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpointGet)
	mux.HandleFunc("PUT /v1/jobs/{id}/checkpoint", s.handleCheckpointPut)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps err to its status code. retryAfter > 0 attaches a
// Retry-After header on the back-pressure codes (429/503) — the server
// derives it from actual queue depth / drain deadline via
// retryAfterHint, so clients honoring it (retry.Classify does) back
// off proportionally to the real congestion instead of hammering a
// full queue every second.
func writeError(w http.ResponseWriter, err error, retryAfter int) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge), errors.Is(err, ErrTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	}
	if retryAfter > 0 && (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSolveBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("serve: bad request body: %w", err), 0)
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeError(w, err, s.retryAfterHint(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCachePeek answers "does any worker already hold this result?"
// without side effects: fingerprint job ids are location-independent,
// so the fleet front door asks every worker's cache before routing a
// fresh submission. 404 unless the job is done (including evicted
// done jobs remembered by tombstone).
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	st, ok := s.CachePeek(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound, 0)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCheckpointGet serves the raw checkpoint of a parked or
// running-adjacent job — the donor half of the fleet's re-park
// hand-off.
func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	data, err := s.CheckpointData(r.PathValue("id"))
	if err != nil {
		writeError(w, err, 0)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleCheckpointPut seeds a checkpoint for a job id before it is
// (re)submitted here — the receiver half of the re-park hand-off.
func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxCheckpointImport))
	if err != nil {
		writeError(w, fmt.Errorf("serve: read checkpoint body: %w", err), 0)
		return
	}
	if err := s.ImportCheckpoint(r.PathValue("id"), data); err != nil {
		writeError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "imported"})
}

// handleEvents streams a job's progress as NDJSON: the recorded
// prefix replays first, live events follow in order, and the final
// line carries the job's status once it settles (terminal, or parked
// by a drain). Every subscriber — whenever it attaches — observes the
// identical event sequence.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, pinned := s.addStreamRef(id)
	if !ok {
		writeError(w, ErrNotFound, 0)
		return
	}
	// Only live jobs take an eviction pin; a stream admitted via a
	// tombstone must not decrement a fresh same-id job's pin count.
	if pinned {
		defer s.releaseStreamRef(id)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, wake, status, settled, err := s.eventsFrom(id, next)
		if err != nil {
			return
		}
		for i := range evs {
			if err := enc.Encode(StreamLine{Event: &evs[i]}); err != nil {
				return
			}
		}
		next += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if settled {
			enc.Encode(StreamLine{Status: &status})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.Draining() {
		state = "draining"
	}
	body := map[string]string{"status": state}
	if err := s.PersistErr(); err != nil {
		body["persistError"] = err.Error()
	}
	writeJSON(w, http.StatusOK, body)
}
