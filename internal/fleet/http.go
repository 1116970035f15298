package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"qaoa2/internal/serve"
)

// Handler returns the fleet front door: the daemon's own job-plane
// handlers (serve.JobMux) over the coordinator, so serve.Client,
// hpc.RemoteSolver and cmd/workflow point at a fleet by changing
// nothing but the URL and get the same status for the same request:
//
//	POST /v1/solve            route (cache sweep first) to a worker
//	GET  /v1/jobs/{id}        proxied status
//	GET  /v1/jobs/{id}/events proxied NDJSON stream (Seq preserved;
//	                          survives worker death via re-route)
//	GET  /v1/cache/{id}       fleet-wide cache peek
//	GET  /healthz             aggregate fleet health and routing counters
//
// and its one route of its own:
//
//	GET  /v1/fleet/workers    worker roster with health states
func (c *Coordinator) Handler() http.Handler {
	mux := serve.JobMux(c, gatewayStatus)
	mux.HandleFunc("GET /v1/fleet/workers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Workers())
	})
	return mux
}

// refused marks the coordinator's own refusal of a request (JobKey's
// verdict): the request's fault, answered 400 as a worker answers it.
type refused struct{ error }

func (r refused) Unwrap() error { return r.error }

// gatewayStatus is the status of a coordinator error that the shared
// mapping leaves to the gateway: 400 for a refusal, 503 with no live
// worker, and 502 for any other failure to get an answer from one.
func gatewayStatus(err error) int {
	switch {
	case errors.As(err, new(refused)):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoWorkers):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}

// Health aggregates: ok while every worker is healthy, degraded while
// at least one live worker remains, down otherwise. The routing
// counters ride along as decimal strings, so the body stays the flat
// string map a worker's /healthz is and serve.Client.Health reads.
func (c *Coordinator) Health(context.Context) (map[string]string, error) {
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
	return map[string]string{
		"status":    status,
		"workers":   describeWorkers(ws),
		"routed":    strconv.Itoa(st.Routed),
		"cacheHits": strconv.Itoa(st.CacheHits),
		"failovers": strconv.Itoa(st.Failovers),
		"reparks":   strconv.Itoa(st.Reparks),
	}, nil
}
