package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"qaoa2/internal/retry"
	"qaoa2/internal/serve"
)

// Handler returns the fleet front door — the same wire surface a
// single qaoa2d exposes, so serve.Client, hpc.RemoteSolver and
// cmd/workflow point at a fleet by changing nothing but the URL:
//
//	POST /v1/solve            route (cache sweep first) to a worker
//	GET  /v1/jobs/{id}        proxied status
//	GET  /v1/jobs/{id}/events proxied NDJSON stream (Seq preserved;
//	                          survives worker death via re-route)
//	GET  /v1/cache/{id}       fleet-wide cache peek
//	GET  /v1/fleet/workers    worker roster with health states
//	GET  /healthz             aggregate fleet health and routing counters
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", c.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /v1/cache/{id}", c.handleCachePeek)
	mux.HandleFunc("GET /v1/fleet/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError forwards a worker's typed status error (code and
// Retry-After hint intact — the worker derived them from its real
// queue state) or maps coordinator-level failures. An instance over
// the size bounds is the client's fault, not a gateway's: 413, as a
// worker answers it.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadGateway
	var se *retry.StatusError
	switch {
	case errors.Is(err, serve.ErrTooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &se):
		code = se.Code
		if se.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(se.RetryAfter.Seconds())))
		}
	case errors.Is(err, serve.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrNoWorkers):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (c *Coordinator) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req serve.SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxSolveBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": "fleet: bad request body: " + err.Error()})
		return
	}
	st, err := c.Submit(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := c.JobStatus(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	st, ok := c.CacheSweep(r.Context(), r.PathValue("id"))
	if !ok {
		writeError(w, serve.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents proxies a job's NDJSON stream through the front door.
// The wire format is identical to a worker's stream — serve.Client
// cannot tell the difference — and the coordinator's re-route
// machinery keeps the stream alive across a worker death.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, _ := w.(http.Flusher)
	wrote := false
	enc := json.NewEncoder(w)
	st, err := c.FollowJob(r.Context(), id, func(ev serve.Event) {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		enc.Encode(serve.StreamLine{Event: &ev})
		if flusher != nil {
			flusher.Flush()
		}
	})
	if err != nil {
		if !wrote {
			writeError(w, err)
		}
		// Mid-stream failure: the torn connection is the signal; the
		// subscriber's own Follow reconnects.
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	enc.Encode(serve.StreamLine{Status: &st})
	if flusher != nil {
		flusher.Flush()
	}
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Workers())
}

// handleHealth aggregates: ok while every worker is healthy, degraded
// while at least one live worker remains, down otherwise. The routing
// counters ride along as decimal strings, so the body stays the flat
// string map a worker's /healthz is and serve.Client.Health reads.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	ws := c.Workers()
	live, healthy := 0, 0
	for _, s := range ws {
		if s.State != WorkerDead {
			live++
		}
		if s.State == WorkerHealthy {
			healthy++
		}
	}
	status := "ok"
	switch {
	case healthy == 0 && live == 0:
		status = "down"
	case healthy < len(ws):
		status = "degraded"
	}
	st := c.Stats()
	writeJSON(w, http.StatusOK, map[string]string{
		"status":    status,
		"workers":   describeWorkers(ws),
		"routed":    strconv.Itoa(st.Routed),
		"cacheHits": strconv.Itoa(st.CacheHits),
		"failovers": strconv.Itoa(st.Failovers),
		"reparks":   strconv.Itoa(st.Reparks),
	})
}
