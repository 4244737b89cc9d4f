package route

import (
	"errors"
	"io"
	"net/http"
	"net/url"

	"solarcore/client"
	"solarcore/internal/edge"
)

// errWatcherGone marks the downstream watcher disconnecting mid-relay;
// the relay stops quietly (nothing left to write to).
var errWatcherGone = errors.New("route: stream watcher gone")

// handleStream serves GET /v1/stream: the same SSE contract as solard's,
// relayed from the spec's owning shard. Validation happens once at the
// edge (exactly like /v1/run), then the gate attaches to the backend's
// feed and pumps frames through with per-event flushes. If the backend
// dies mid-stream the gate reconnects — to the next ring owner if the
// node was ejected — resuming with Last-Event-ID set to the last id it
// relayed, so the watcher sees one continuous, gapless sequence across
// the fail-over (deterministic re-simulation on the new owner produces
// identical events with identical sequence numbers).
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		edge.WriteDraining(w, drainingMsg)
		return
	}
	req, after, apiErr := client.ReadStreamRequest(r)
	if apiErr != nil {
		client.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	rt.relayStream(w, r, req, after)
}

// relayStream drives the relay loop: connect to an owner, pump until the
// feed ends, and on a retryable upstream failure reconnect with the
// updated resume cursor. Before the SSE response is committed, failures
// surface as ordinary HTTP error envelopes; after commitment only a
// terminal SSE error frame can report them.
func (rt *Router) relayStream(w http.ResponseWriter, r *http.Request, req client.RunRequest, after uint64) {
	rc := http.NewResponseController(w)
	key := req.Hash()
	lastID := after
	committed := false
	reconnects := 0
	for {
		owners := rt.ownersFor(key)
		if len(owners) == 0 {
			rt.relayFail(w, rc, committed, ErrNoBackends)
			return
		}
		var st *client.Stream
		var src *backend
		var lastErr error
		for _, b := range owners {
			s, err := b.cli.Stream(r.Context(), client.StreamRequest{
				RunRequest:  req,
				LastEventID: lastID,
				Heartbeats:  true, // relay upstream keep-alives to our watcher
			})
			if err != nil {
				if !retryableStreamErr(err) {
					// The backend answered with a definite refusal (bad spec,
					// unsupported version, …): relay its envelope verbatim.
					rt.relayFail(w, rc, committed, err)
					return
				}
				lastErr = err
				continue
			}
			st, src = s, b
			break
		}
		if st == nil {
			if lastErr == nil {
				lastErr = ErrNoBackends
			}
			rt.relayFail(w, rc, committed, lastErr)
			return
		}
		if !committed {
			h := w.Header()
			h.Set("Content-Type", client.ContentTypeSSE)
			h.Set("Cache-Control", "no-store")
			h.Set(client.HeaderBackend, src.name)
			w.WriteHeader(http.StatusOK)
			_ = rc.Flush()
			committed = true
			rt.reg.Add(MetricStreams, 1)
		}
		err := rt.pumpStream(w, rc, st, &lastID)
		_ = st.Close()
		switch {
		case err == nil:
			return // clean end of stream, relayed in full
		case errors.Is(err, errWatcherGone) || r.Context().Err() != nil:
			return // our watcher hung up; nothing left to tell it
		case retryableStreamErr(err) && reconnects < rt.cfg.MaxRetries:
			// The upstream died mid-stream (partition, crash, ejection):
			// reconnect, resuming strictly after the last relayed id.
			reconnects++
			rt.reg.Add(MetricStreamReconnects, 1)
		default:
			rt.relayFail(w, rc, committed, err)
			return
		}
	}
}

// pumpStream relays one upstream connection's frames until it ends:
// heartbeat comments pass through as comments, event frames byte-for-
// byte with their ids, each flushed immediately. Frames at or below the
// resume cursor are dropped — a conservative upstream that replays from
// earlier than asked must not produce duplicates downstream. Returns nil
// on clean upstream EOF.
func (rt *Router) pumpStream(w http.ResponseWriter, rc *http.ResponseController, st *client.Stream, lastID *uint64) error {
	for {
		ev, err := st.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if ev.ID > 0 && ev.ID <= *lastID {
			continue
		}
		var werr error
		if ev.Type == client.TypeHeartbeat {
			_, werr = io.WriteString(w, ": hb\n\n")
		} else {
			werr = edge.WriteEvent(w, ev.ID, ev.Type, ev.Data)
		}
		if werr != nil {
			return errWatcherGone
		}
		_ = rc.Flush()
		if ev.ID > 0 {
			*lastID = ev.ID
			rt.reg.Add(MetricStreamEvents, 1)
		}
	}
}

// relayFail reports a relay failure in whichever channel is still open:
// the ordinary HTTP error envelope before the SSE response is committed,
// a terminal SSE error frame after.
func (rt *Router) relayFail(w http.ResponseWriter, rc *http.ResponseController, committed bool, err error) {
	if !committed {
		rt.writeFetchError(w, err)
		return
	}
	code, msg, retryMs := client.CodeUnreachable, err.Error(), int64(0)
	var ae *client.APIError
	if errors.As(err, &ae) {
		code, msg = ae.Code, ae.Message
		retryMs = ae.RetryAfter.Milliseconds()
	}
	_ = edge.WriteEvent(w, 0, client.StreamEventError, client.ErrorBody(code, msg, retryMs))
	_ = rc.Flush()
}

// retryableStreamErr reports whether a stream failure may be cured by
// another owner or a fresh connection: transport faults, mid-frame
// truncation, and 429/5xx refusals. Definite answers — 4xx envelopes
// and mid-stream SSE error frames (Status 0: the run itself failed) —
// are terminal and relayed instead.
func retryableStreamErr(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ue *url.Error
	return errors.As(err, &ue)
}
