package route

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"solarcore/client"
	"solarcore/internal/edge"
	"solarcore/internal/obs"
)

// writeFetchError maps a fetchRun failure onto the wire envelope. An
// upstream APIError passes through with its original status, code and
// Retry-After — the gate is transparent to solard's own semantics; gate-
// local conditions get their own codes.
func (rt *Router) writeFetchError(w http.ResponseWriter, err error) {
	var ae *client.APIError
	switch {
	case errors.As(err, &ae):
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ae.RetryAfter.Seconds())))
		}
		client.WriteError(w, ae.Status, ae.Code, ae.Message)
	case errors.Is(err, ErrNoBackends):
		w.Header().Set("Retry-After", "1")
		client.WriteError(w, http.StatusServiceUnavailable, client.CodeNoBackends, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		client.WriteError(w, http.StatusGatewayTimeout, client.CodeDeadline, err.Error())
	case errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		client.WriteError(w, http.StatusServiceUnavailable, client.CodeCanceled, err.Error())
	default:
		client.WriteError(w, http.StatusBadGateway, client.CodeUnreachable,
			fmt.Sprintf("upstream unreachable: %v", err))
	}
}

// drainingMsg is the message of the gate's drain rejection.
const drainingMsg = "router is draining"

// handleRun serves POST /v1/run: validate once at the edge, route to
// the owning shard, and relay the winner's body byte-for-byte. The
// response reports where the bytes came from: X-Cache is the backend's
// cache disposition, X-Gate the route disposition (primary/hedged/
// retried), X-Gate-Backend the node that answered.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		edge.WriteDraining(w, drainingMsg)
		return
	}
	req, apiErr := client.ReadRunRequest(w, r)
	if apiErr != nil {
		client.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	res, disp, backendName, err := rt.fetchRun(r.Context(), req.Hash(), req)
	if err != nil {
		rt.writeFetchError(w, err)
		return
	}
	if res.Cache != "" {
		w.Header().Set(client.HeaderCache, res.Cache)
	}
	w.Header().Set(client.HeaderRoute, disp)
	w.Header().Set(client.HeaderBackend, backendName)
	// Re-declare integrity for the gate→client hop: the upstream sum was
	// verified by the typed client when the body arrived here.
	w.Header().Set(client.HeaderBodySum, client.BodySum(res.Body))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(res.Body)
}

// handleSweep serves POST /v1/sweep: the batch is validated up front,
// then every cell is routed independently to its owning shard — each
// with its own hedge/retry budget — over SweepWorkers workers
// (edge.Sweep) and reassembled in request order. Per-cell failures are
// reported in place so one bad shard never loses the batch.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		edge.WriteDraining(w, drainingMsg)
		return
	}
	req, apiErr := client.ReadSweepRequest(w, r, rt.cfg.MaxSweep)
	if apiErr != nil {
		client.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	items := edge.Sweep(r.Context(), req.Runs, rt.cfg.SweepWorkers,
		func(ctx context.Context, key string, run client.RunRequest) ([]byte, string, error) {
			res, _, _, err := rt.fetchRun(ctx, key, run)
			if err != nil {
				return nil, "", err
			}
			return res.Body, res.Cache, nil
		}, rt.countPanic)
	edge.WriteJSON(w, http.StatusOK, client.SweepResponse{Results: items})
}

// handlePolicies proxies GET /v1/policies to the first healthy backend
// — the policy table is identical fleet-wide, so any node can answer.
func (rt *Router) handlePolicies(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, b := range rt.healthyBackends() {
		pols, err := b.cli.Policies(r.Context())
		if err == nil {
			edge.WriteJSON(w, http.StatusOK, client.PoliciesResponse{Policies: pols})
			return
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoBackends
	}
	rt.writeFetchError(w, lastErr)
}

// handleMetrics serves GET /metrics: the router's own route_* counters
// merged with every healthy backend's snapshot through
// obs.MergeSnapshots — one fleet-wide view, counters summed, gauges
// last-write, histograms pooled.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := []obs.Snapshot{rt.reg.Snapshot()}
	for _, b := range rt.healthyBackends() {
		snap, err := b.cli.Metrics(r.Context())
		if err != nil {
			// A node that cannot answer /metrics right now is simply absent
			// from this scrape; the prober will eject it if it stays dark.
			continue
		}
		snaps = append(snaps, snap)
	}
	merged := obs.MergeSnapshots(snaps...)
	w.Header().Set("Content-Type", "application/json")
	// A late encode failure cannot reach the client; dropped deliberately.
	_ = merged.WriteJSON(w)
}

// handleHealthz serves GET /healthz: 200 while at least one backend is
// routable, 503 once draining or when the whole fleet is ejected.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case rt.draining.Load():
		w.Header().Set("Retry-After", "5")
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case rt.Healthy() == 0:
		w.Header().Set("Retry-After", "1")
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy backends"})
	default:
		edge.WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"backends": rt.Healthy(),
		})
	}
}
