package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/edge"
)

// The wire contract — request/response types, the error envelope, the
// strict decoder — is defined once in solarcore/client and shared with
// the fleet router and every consumer; this package only implements the
// server side of it.

// runError maps a Result failure onto its HTTP status, envelope code
// and Retry-After seconds: backpressure and drain shed load retryably
// (429/503), a blown run deadline is 504, and anything else is a plain
// 500. /v1/run answers with all three; a committed /v1/stream carries
// the code and retry hint in its terminal SSE error frame.
func runError(err error) (status int, code string, retryAfter int) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, client.CodeOverloaded, 1
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, client.CodeDraining, 5
	case errors.Is(err, solarcore.ErrUnknownPolicy):
		return http.StatusBadRequest, client.CodeBadRequest, 0
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, client.CodeDeadline, 0
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, client.CodeCanceled, 1
	default:
		return http.StatusInternalServerError, client.CodeInternal, 0
	}
}

// writeRunError answers a Result failure with its runError mapping.
func writeRunError(w http.ResponseWriter, err error) {
	status, code, retryAfter := runError(err)
	msg := err.Error()
	if status == http.StatusGatewayTimeout {
		msg = "run deadline exceeded: " + msg
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	client.WriteError(w, status, code, msg)
}

// handleRun serves POST /v1/run: one spec in, one DayResult out, through
// cache, coalescer and the bounded pool.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		edge.WriteDraining(w, ErrDraining.Error())
		return
	}
	req, apiErr := client.ReadRunRequest(w, r)
	if apiErr != nil {
		client.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	body, src, err := s.Result(r.Context(), req.RunSpec, req.TimeoutMs)
	if err != nil {
		writeRunError(w, err)
		return
	}
	w.Header().Set(client.HeaderCache, src)
	// Declare the body checksum so clients can detect in-flight
	// corruption: HTTP itself delivers flipped bits as a healthy 200.
	w.Header().Set(client.HeaderBodySum, client.BodySum(body))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleSweep serves POST /v1/sweep: the whole batch is validated up
// front (any invalid spec or wire version fails the request with 400
// before any simulation starts), then fanned over MaxInflight workers
// (edge.Sweep); per-item failures (deadline, shed load, a panicking
// run) are reported in place so one bad cell never loses the batch.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		edge.WriteDraining(w, ErrDraining.Error())
		return
	}
	req, apiErr := client.ReadSweepRequest(w, r, s.cfg.MaxSweep)
	if apiErr != nil {
		client.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	items := edge.Sweep(r.Context(), req.Runs, s.cfg.MaxInflight,
		func(ctx context.Context, _ string, run client.RunRequest) ([]byte, string, error) {
			return s.Result(ctx, run.RunSpec, run.TimeoutMs)
		}, s.countPanic)
	edge.WriteJSON(w, http.StatusOK, client.SweepResponse{Results: items})
}

// handlePolicies serves GET /v1/policies: the Table 6 policy names.
func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	edge.WriteJSON(w, http.StatusOK, client.PoliciesResponse{Policies: solarcore.Policies()})
}

// handleMetrics serves GET /metrics: the obs.Registry snapshot as
// indented JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// A late encode failure cannot reach the client; dropped deliberately.
	_ = s.reg.Snapshot().WriteJSON(w)
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once
// draining so load balancers stop routing new work here.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
