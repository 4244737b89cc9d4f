// Package edge is the HTTP edge solard (internal/serve) and solargate
// (internal/route) share (DESIGN.md §12, §15): the middleware that
// counts, panic-contains and access-logs every request, the JSON
// response writer, the /v1/sweep fan-out, and the listen/drain process
// lifecycle. Each server keeps only what differs — its routes, its
// per-cell call and its metric names, which reach this package as
// callbacks so every serve_* and route_* counter keeps its one static
// registration site (solarvet's metricname rule).
//
// Like the servers, the package reads no wall clock of its own:
// Instrument takes the server's injected clock.
package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"solarcore/client"
	"solarcore/internal/obs"
	"solarcore/internal/par"
)

// statusRecorder captures the status code and body size a handler wrote,
// for the access log.
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
// reach Flush through the recorder (the SSE handlers flush per event).
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Instrument wraps h with the serving middleware: panic containment (a
// panicking handler answers a 500 envelope if nothing was written yet,
// onPanic fires, and the server lives on), onRequest once per completed
// request, and — when accessLog is non-nil — one obs.AccessEvent line
// carrying the response's X-Cache disposition, timed by clock.
func Instrument(h http.HandlerFunc, clock func() time.Time, accessLog *obs.JSONLSink, onRequest, onPanic func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := clock()
		defer func() {
			if p := recover(); p != nil {
				onPanic()
				if rec.status == 0 {
					client.WriteError(rec, http.StatusInternalServerError, client.CodeInternal, "internal error")
				}
			}
			onRequest()
			if accessLog == nil {
				return
			}
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			accessLog.On(obs.Event{Type: obs.TypeAccess, Access: &obs.AccessEvent{
				Method: r.Method,
				Path:   r.URL.Path,
				Status: status,
				DurMs:  clock().Sub(start).Seconds() * 1000,
				Bytes:  rec.bytes,
				Cache:  rec.Header().Get(client.HeaderCache),
				Remote: r.RemoteAddr,
			}})
		}()
		h(rec, r)
	})
}

// WriteJSON writes v as the response body with the given status. A late
// encode failure cannot reach the client anymore (the header is out),
// so it is dropped deliberately.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteDraining answers new work refused by a draining server: 503
// draining, with the Retry-After both servers advertise while they
// shut down.
func WriteDraining(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "5")
	client.WriteError(w, http.StatusServiceUnavailable, client.CodeDraining, msg)
}

// WriteEvent writes one Server-Sent Events frame. A zero id writes no
// id line (gap and error frames), so a watcher's resume cursor stays on
// the last real event. Each line of data goes out as its own data field,
// which an SSE reader joins back with "\n"; a JSONL payload is one line.
// Both servers frame every SSE event through it.
func WriteEvent(w io.Writer, id uint64, event string, data []byte) error {
	var buf bytes.Buffer
	if id > 0 {
		fmt.Fprintf(&buf, "id: %d\n", id)
	}
	fmt.Fprintf(&buf, "event: %s\n", event)
	for {
		line, rest, more := bytes.Cut(data, []byte("\n"))
		buf.WriteString("data: ")
		buf.Write(line)
		buf.WriteByte('\n')
		if !more {
			break
		}
		data = rest
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// Cell serves one sweep cell: the run's marshaled result and cache
// disposition. key is the run's RunSpec.Hash, computed once by Sweep.
type Cell func(ctx context.Context, key string, run client.RunRequest) (body []byte, cache string, err error)

// Sweep fans a validated /v1/sweep batch over at most workers
// goroutines and returns one item per run, in request order. A cell's
// failure is reported in its own item; so is a panic, which cell's
// goroutine would otherwise take the process down with (onPanic fires
// once per panicking cell). When ctx ends mid-batch — the client went
// away — feeding stops, in-flight cells finish, and every cell never
// started reports "sweep canceled: <ctx error>".
func Sweep(ctx context.Context, runs []client.RunRequest, workers int, cell Cell, onPanic func()) []client.SweepItem {
	items := make([]client.SweepItem, len(runs))
	fed := par.Each(ctx, len(runs), workers, func(i int) {
		items[i] = sweepCell(ctx, runs[i], cell, onPanic)
	})
	for i := fed; i < len(runs); i++ {
		items[i] = client.SweepItem{
			Hash:  runs[i].Hash(),
			Error: fmt.Errorf("sweep canceled: %w", ctx.Err()).Error(),
		}
	}
	return items
}

// sweepCell runs one cell, containing a panic to its own item.
func sweepCell(ctx context.Context, run client.RunRequest, cell Cell, onPanic func()) (item client.SweepItem) {
	defer func() {
		if p := recover(); p != nil {
			onPanic()
			item = client.SweepItem{Hash: item.Hash, Error: fmt.Sprintf("cell panicked: %v", p)}
		}
	}()
	item.Hash = run.Hash()
	body, cache, err := cell(ctx, item.Hash, run)
	if err != nil {
		item.Error = err.Error()
		return item
	}
	item.Cache, item.Result = cache, body
	return item
}

// OpenAccessLog opens the -access destination both commands accept:
// "" is off (nil sink), "-" is stdout, anything else a file created at
// that path. closeLog releases the file; call it once the server and
// everything writing to the sink has closed.
func OpenAccessLog(path string, stdout io.Writer) (sink *obs.JSONLSink, closeLog func(), err error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return obs.NewJSONLSink(stdout), func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return obs.NewJSONLSink(f), func() { _ = f.Close() }, nil
}
