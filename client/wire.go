// Package client is the single wire contract of the solard/solargate
// HTTP API and its typed Go client (DESIGN.md §12, §15). The request
// and response bodies of every /v1/* endpoint, the v1 error envelope,
// the strict server-side request decoders and the response-header
// vocabulary are all defined here, exactly once; internal/serve (the
// single-node server), internal/route (the fleet router), cmd/solarload
// (the benchmark) and the end-to-end tests all import these
// definitions, so the protocol cannot drift between layers.
//
// The Client type speaks that contract over net/http with context
// deadlines, typed errors (*APIError carries status, machine-readable
// code and Retry-After) and a shared keep-alive transport so repeated
// calls against the same backend reuse connections.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"strings"

	"solarcore"
)

// WireVersion is the protocol version this build speaks. Requests carry
// it in their "v" field; a server receiving a version it does not know
// answers 400 with CodeUnsupportedVersion, so a router can front a
// mixed-version fleet and fail loudly instead of mis-simulating.
const WireVersion = 1

// CheckWireVersion validates a request's "v" field. Zero is accepted as
// v1 — pre-versioned clients omit the field — so the check only rejects
// explicit versions this build does not speak.
func CheckWireVersion(v int) error {
	if v == 0 || v == WireVersion {
		return nil
	}
	return fmt.Errorf("unsupported wire version %d (this build speaks v%d)", v, WireVersion)
}

// RunRequest is the POST /v1/run body: one solarcore.RunSpec (the
// simulation identity) plus transport-level fields that do not affect
// the cache key.
type RunRequest struct {
	// V is the wire version (WireVersion; 0 is accepted as v1).
	V int `json:"v,omitempty"`
	solarcore.RunSpec
	// TimeoutMs shortens the server's per-run deadline for this request
	// (clamped to the server's maximum). Coalesced followers inherit the
	// leader's deadline.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: a batch of run requests
// fanned over the server's bounded worker pool (or, through solargate,
// over the owning shards of a fleet).
type SweepRequest struct {
	// V is the wire version (WireVersion; 0 is accepted as v1).
	V    int          `json:"v,omitempty"`
	Runs []RunRequest `json:"runs"`
}

// SweepItem is one /v1/sweep result, in request order. Exactly one of
// Result and Error is set.
type SweepItem struct {
	// Hash is the spec's cache identity (solarcore.RunSpec.Hash).
	Hash string `json:"hash"`
	// Cache is the disposition: obs.CacheHit, CacheMiss or CacheCoalesced.
	Cache string `json:"cache,omitempty"`
	// Result is the marshaled DayResult.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the per-item failure, when the run could not complete.
	Error string `json:"error,omitempty"`
}

// SweepResponse is the /v1/sweep response body.
type SweepResponse struct {
	Results []SweepItem `json:"results"`
}

// PoliciesResponse is the /v1/policies response body.
type PoliciesResponse struct {
	Policies []string `json:"policies"`
}

// Response headers of the simulation endpoints. HeaderCache is set by
// every serving layer; HeaderRoute and HeaderBackend are added by
// solargate so clients can attribute a response to its routing path.
const (
	// HeaderCache carries the cache disposition (obs.CacheHit,
	// CacheMiss, CacheCoalesced).
	HeaderCache = "X-Cache"
	// HeaderRoute carries the routing disposition (RoutePrimary,
	// RouteHedged, RouteRetried); absent when talking to solard directly.
	HeaderRoute = "X-Gate"
	// HeaderBackend names the backend that produced the response.
	HeaderBackend = "X-Gate-Backend"
	// HeaderBodySum carries a CRC32-C of the response body
	// ("crc32c:<8 hex digits>"), set by solard on /v1/run and verified by
	// the Client. HTTP has no payload integrity of its own, so without
	// this a single flipped bit in transit (or in a buggy middlebox)
	// would be delivered as a perfectly well-formed 200. A mismatch
	// surfaces as *IntegrityError — temporary, so the router's fail-over
	// recomputes on another replica (the engine is deterministic; every
	// replica produces byte-identical results).
	HeaderBodySum = "X-Body-Sum"
)

// bodySumPrefix names the checksum algorithm inside HeaderBodySum; an
// unknown prefix is ignored (forward compatibility), a known prefix
// with a wrong digest is an integrity failure.
const bodySumPrefix = "crc32c:"

// castagnoli is the CRC32-C table shared by BodySum and CheckBodySum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BodySum computes the HeaderBodySum value for a response body.
func BodySum(body []byte) string {
	return fmt.Sprintf("%s%08x", bodySumPrefix, crc32.Checksum(body, castagnoli))
}

// CheckBodySum verifies body against a HeaderBodySum value. An empty
// header (old server) or an unknown algorithm prefix passes; a crc32c
// header that does not match returns a *IntegrityError.
func CheckBodySum(header string, body []byte) error {
	if header == "" || !strings.HasPrefix(header, bodySumPrefix) {
		return nil
	}
	if got := BodySum(body); got != header {
		return &IntegrityError{Got: got, Want: header}
	}
	return nil
}

// HeaderRoute values.
const (
	// RoutePrimary means the key's first healthy ring owner answered.
	RoutePrimary = "primary"
	// RouteHedged means a hedge fired and the hedged attempt won.
	RouteHedged = "hedged"
	// RouteRetried means at least one fail-over retry preceded the
	// winning attempt.
	RouteRetried = "retried"
)

// MaxBodyBytes bounds request bodies server-side; a RunSpec is a few
// hundred bytes, a full sweep a few kilobytes.
const MaxBodyBytes = 1 << 20

// UnmarshalStrict decodes one strict JSON value from data — unknown
// fields and trailing garbage are errors, like ReadJSON — for request
// payloads that arrive outside a body, such as the /v1/stream `spec`
// query parameter.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad spec: %v", err)
	}
	if dec.More() {
		return errors.New("bad spec: trailing data")
	}
	return nil
}

// HeaderLastEventID is the SSE resume header: a client reconnecting to
// /v1/stream sends the last event sequence number it saw, and the server
// resumes strictly after it. The engine is deterministic, so a cursor is
// valid against any replica of the same spec.
const HeaderLastEventID = "Last-Event-ID"

// ParseLastEventID parses a HeaderLastEventID value: a decimal event
// sequence number. Empty means "from the start".
func ParseLastEventID(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: not a decimal sequence number", HeaderLastEventID, s)
	}
	return n, nil
}

// ReadJSON decodes one strict JSON value from the request body: unknown
// fields and trailing data are errors, so typos in spec fields fail
// loudly with 400 instead of silently simulating the default. The
// Read*Request decoders below build on it.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

// badRequest is the 400 every request decoder below answers with.
func badRequest(code, msg string) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: code, Message: msg}
}

// checkRun gates one decoded run request: wire version first, then spec
// validation, each failure prefixed with where in the request it sits.
func checkRun(req RunRequest, prefix string) *APIError {
	if err := CheckWireVersion(req.V); err != nil {
		return badRequest(CodeUnsupportedVersion, prefix+err.Error())
	}
	if err := req.Validate(); err != nil {
		return badRequest(CodeBadRequest, prefix+err.Error())
	}
	return nil
}

// ReadRunRequest decodes and checks one POST /v1/run body: strict JSON,
// wire version, spec validation. A failure is the 400 *APIError the
// handler answers with through WriteError; solard and solargate both
// decode through it, so their rejections are byte-identical.
func ReadRunRequest(w http.ResponseWriter, r *http.Request) (RunRequest, *APIError) {
	var req RunRequest
	if err := ReadJSON(w, r, &req); err != nil {
		return req, badRequest(CodeBadRequest, err.Error())
	}
	return req, checkRun(req, "")
}

// ReadSweepRequest decodes and checks one POST /v1/sweep body: strict
// JSON, the envelope's wire version, a batch of 1..maxRuns runs, and
// every run's version and spec, reported as "runs[i]: ...". The whole
// batch is checked before any cell runs.
func ReadSweepRequest(w http.ResponseWriter, r *http.Request, maxRuns int) (SweepRequest, *APIError) {
	var req SweepRequest
	if err := ReadJSON(w, r, &req); err != nil {
		return req, badRequest(CodeBadRequest, err.Error())
	}
	if err := CheckWireVersion(req.V); err != nil {
		return req, badRequest(CodeUnsupportedVersion, err.Error())
	}
	if len(req.Runs) == 0 {
		return req, badRequest(CodeBadRequest, "empty sweep: give at least one run")
	}
	if len(req.Runs) > maxRuns {
		return req, badRequest(CodeBadRequest,
			fmt.Sprintf("sweep of %d runs exceeds the limit of %d", len(req.Runs), maxRuns))
	}
	for i, item := range req.Runs {
		if e := checkRun(item, fmt.Sprintf("runs[%d]: ", i)); e != nil {
			return req, e
		}
	}
	return req, nil
}

// ReadStreamRequest decodes and checks one GET /v1/stream request: the
// RunRequest JSON in the spec query parameter (strict, versioned,
// validated) and the Last-Event-ID resume cursor.
func ReadStreamRequest(r *http.Request) (req RunRequest, after uint64, e *APIError) {
	spec := r.URL.Query().Get("spec")
	if spec == "" {
		return req, 0, badRequest(CodeBadRequest, "missing spec query parameter")
	}
	if err := UnmarshalStrict([]byte(spec), &req); err != nil {
		return req, 0, badRequest(CodeBadRequest, err.Error())
	}
	if e := checkRun(req, ""); e != nil {
		return req, 0, e
	}
	after, err := ParseLastEventID(r.Header.Get(HeaderLastEventID))
	if err != nil {
		return req, 0, badRequest(CodeBadRequest, err.Error())
	}
	return req, after, nil
}
