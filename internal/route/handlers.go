package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"solarcore/client"
	"solarcore/internal/obs"
)

// statusRecorder captures status and body size for metrics and the
// access log (same shape as internal/serve's — each server owns its
// middleware; only the wire contract is shared).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush through the recorder (the stream relay flushes per event).
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// countPanic records one contained panic (single registration site for
// the counter).
func (rt *Router) countPanic() {
	rt.reg.Add(MetricPanics, 1)
}

// instrument wraps a handler with request counting, panic containment
// and the access log.
func (rt *Router) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := rt.cfg.Clock()
		defer func() {
			if p := recover(); p != nil {
				rt.countPanic()
				if rec.status == 0 {
					client.WriteError(rec, http.StatusInternalServerError, client.CodeInternal, "internal error")
				}
			}
			rt.reg.Add(MetricRequests, 1)
			if rt.cfg.AccessLog != nil {
				status := rec.status
				if status == 0 {
					status = http.StatusOK
				}
				rt.cfg.AccessLog.OnAccess(obs.AccessEvent{
					Method: r.Method,
					Path:   r.URL.Path,
					Status: status,
					DurMs:  rt.cfg.Clock().Sub(start).Seconds() * 1000,
					Bytes:  rec.bytes,
					Cache:  rec.Header().Get(client.HeaderCache),
					Remote: r.RemoteAddr,
				})
			}
		}()
		h(rec, r)
	})
}

// writeJSON writes v with the given status; a late encode failure
// cannot reach the client anymore and is dropped deliberately.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

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

// writeDraining answers the drain rejection shared by the POST routes.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "5")
	client.WriteError(w, http.StatusServiceUnavailable, client.CodeDraining, "router is draining")
}

// handleRun serves POST /v1/run: validate once at the edge, route to
// the owning shard, and relay the winner's body byte-for-byte. The
// response reports where the bytes came from: X-Cache is the backend's
// cache disposition, X-Gate the route disposition (primary/hedged/
// retried), X-Gate-Backend the node that answered.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		writeDraining(w)
		return
	}
	var req client.RunRequest
	if err := client.ReadJSON(w, r, &req); err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeBadRequest, err.Error())
		return
	}
	if err := client.CheckWireVersion(req.V); err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeUnsupportedVersion, err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeBadRequest, err.Error())
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
// with its own hedge/retry budget — and reassembled in request order.
// Per-cell failures are reported in-place so one bad shard never loses
// the batch.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		writeDraining(w)
		return
	}
	var req client.SweepRequest
	if err := client.ReadJSON(w, r, &req); err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeBadRequest, err.Error())
		return
	}
	if err := client.CheckWireVersion(req.V); err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeUnsupportedVersion, err.Error())
		return
	}
	if len(req.Runs) == 0 {
		client.WriteError(w, http.StatusBadRequest, client.CodeBadRequest, "empty sweep: give at least one run")
		return
	}
	if len(req.Runs) > rt.cfg.MaxSweep {
		client.WriteError(w, http.StatusBadRequest, client.CodeBadRequest,
			fmt.Sprintf("sweep of %d runs exceeds the limit of %d", len(req.Runs), rt.cfg.MaxSweep))
		return
	}
	for i, item := range req.Runs {
		if err := client.CheckWireVersion(item.V); err != nil {
			client.WriteError(w, http.StatusBadRequest, client.CodeUnsupportedVersion,
				fmt.Sprintf("runs[%d]: %v", i, err))
			return
		}
		if err := item.Validate(); err != nil {
			client.WriteError(w, http.StatusBadRequest, client.CodeBadRequest,
				fmt.Sprintf("runs[%d]: %v", i, err))
			return
		}
	}

	ctx := r.Context()
	items := make([]client.SweepItem, len(req.Runs))
	workers := rt.cfg.SweepWorkers
	if workers > len(req.Runs) {
		workers = len(req.Runs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				items[i] = rt.sweepCell(ctx, req.Runs[i])
			}
		}()
	}
	// Feed under the request context so a vanished client cannot wedge
	// the loop on a bare send; unfed cells report the context error.
	fed := len(req.Runs)
feed:
	for i := range req.Runs {
		select {
		case next <- i:
		case <-ctx.Done():
			fed = i
			break feed
		}
	}
	close(next)
	wg.Wait()
	for i := fed; i < len(items); i++ {
		items[i].Hash = req.Runs[i].Hash()
		items[i].Error = fmt.Errorf("sweep canceled: %w", ctx.Err()).Error()
	}
	writeJSON(w, http.StatusOK, client.SweepResponse{Results: items})
}

// sweepCell routes one sweep cell as a per-cell run, containing a
// panicking code path to its own item.
func (rt *Router) sweepCell(ctx context.Context, spec client.RunRequest) (item client.SweepItem) {
	defer func() {
		if p := recover(); p != nil {
			rt.countPanic()
			item.Cache = ""
			item.Result = nil
			item.Error = fmt.Sprintf("cell panicked: %v", p)
		}
	}()
	item.Hash = spec.Hash()
	res, _, _, err := rt.fetchRun(ctx, item.Hash, spec)
	if err != nil {
		item.Error = err.Error()
		return item
	}
	item.Cache = res.Cache
	item.Result = res.Body
	return item
}

// handlePolicies proxies GET /v1/policies to the first healthy backend
// — the policy table is identical fleet-wide, so any node can answer.
func (rt *Router) handlePolicies(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, b := range rt.healthyBackends() {
		pols, err := b.cli.Policies(r.Context())
		if err == nil {
			writeJSON(w, http.StatusOK, client.PoliciesResponse{Policies: pols})
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
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case rt.Healthy() == 0:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy backends"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"backends": rt.Healthy(),
		})
	}
}
