package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/edge"
	"solarcore/internal/obs"
	"solarcore/internal/stream"
)

// evSuffix distinguishes a run's durable JSONL event tail from its
// result record in internal/store: both live under the spec's hash, the
// tail with this suffix appended. Warm-start skips these keys (they are
// event streams, not result bodies) and /v1/stream replays them.
const evSuffix = "-ev"

// evKey is the durable-store key of key's event tail.
func evKey(key string) string { return key + evSuffix }

// handleStream serves GET /v1/stream?spec=<RunRequest JSON>: the spec's
// obs event sequence as Server-Sent Events — attached live while the run
// is in flight (starting it when no one else has), replayed from the
// durable event tail when it already completed. A Last-Event-ID header
// resumes strictly after the given sequence number (DESIGN.md §17).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Stream == nil {
		client.WriteError(w, http.StatusNotFound, client.CodeBadRequest, "streaming is disabled on this server")
		return
	}
	if s.draining.Load() {
		edge.WriteDraining(w, ErrDraining.Error())
		return
	}
	req, after, apiErr := client.ReadStreamRequest(r)
	if apiErr != nil {
		client.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	sub := s.openStream(req.RunSpec, req.TimeoutMs, after)
	defer sub.Close()
	s.serveSSE(w, r, sub)
}

// openStream attaches a cursor to the spec's event feed, arranging the
// feed when this watcher is first of its topic generation: an open topic
// already being fed is joined as-is (N watchers, one simulation); a
// completed run with a durable event tail replays it; otherwise a fresh
// simulation is started on the shared singleflight. Subscribing before
// the feed starts guarantees the cursor sees every event from `after`.
func (s *Server) openStream(spec solarcore.RunSpec, timeoutMs int, after uint64) *stream.Sub {
	key := spec.Hash()
	topic, created := s.cfg.Stream.Ensure(key)
	sub := topic.Subscribe(after)
	if !created {
		return sub
	}
	if s.cfg.Store != nil {
		if tail, ok := s.cfg.Store.Get(evKey(key)); ok {
			go s.cfg.Stream.Replay(topic, tail)
			return sub
		}
	}
	go s.feedTopic(topic, spec, timeoutMs)
	return sub
}

// feedTopic drives one simulation as the topic's event source. It runs
// detached from any single watcher's request — the run must complete
// for the result cache and every other subscriber even if the opening
// watcher disconnects — and persists the event tail beside the result
// record, so later watchers replay from disk instead of re-simulating.
func (s *Server) feedTopic(topic *stream.Topic, spec solarcore.RunSpec, timeoutMs int) {
	pub := stream.NewPublisher(topic)
	var err error
	for attempt := 1; ; attempt++ {
		var src string
		_, src, err = s.result(s.baseCtx, spec, timeoutMs, pub)
		if err != nil || src != obs.CacheCoalesced {
			break
		}
		// Joined a /v1/run flight whose leader carries no publisher: its
		// events never reached this topic. The flight is gone by the time
		// Do returns, so a retry almost always leads; bound it regardless.
		if attempt == 4 {
			err = fmt.Errorf("stream: lost the run leadership race %d times for %s", attempt, topic.Key())
			break
		}
	}
	if err != nil {
		topic.CloseWith(err)
		return
	}
	if s.cfg.Store != nil {
		// Best effort, like the result record: a full disk must not fail
		// the stream; the store counts store_put_errors_total itself.
		_ = s.cfg.Store.Put(evKey(topic.Key()), topic.TailJSONL())
	}
	topic.CloseWith(nil)
}

// serveSSE pumps a subscription onto w as Server-Sent Events: one frame
// per event line (`id` = sequence number, `event` = obs type, `data` =
// the JSONL line), flushed per event so watchers see ticks as they
// happen; `: hb` keep-alive comments while the feed is idle; and, when
// the feed fails after the stream is committed, one terminal SSE
// "error" frame carrying the v1 error envelope. A clean stream simply
// ends after its final event (run_end, for a live run).
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, sub *stream.Sub) {
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", client.ContentTypeSSE)
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	for {
		wctx, cancel := context.WithTimeout(r.Context(), s.cfg.Heartbeat)
		fr, err := sub.Next(wctx)
		// Read the wait context's state before releasing it: after cancel
		// its Err is always non-nil, which would make every feed failure
		// look like a heartbeat tick.
		waitErr := wctx.Err()
		cancel()
		switch {
		case err == nil:
			if edge.WriteEvent(w, fr.Seq, fr.Type, fr.Data) != nil {
				return // client gone mid-write
			}
			_ = rc.Flush()
		case errors.Is(err, io.EOF):
			return
		case waitErr != nil:
			// Our wait context died, not the feed: either the client
			// disconnected, or the heartbeat interval elapsed idle. (A
			// feed error racing the heartbeat deadline lands here too;
			// the next iteration reads it without blocking.)
			if r.Context().Err() != nil {
				return
			}
			if _, werr := io.WriteString(w, ": hb\n\n"); werr != nil {
				return
			}
			_ = rc.Flush()
		default:
			_, code, retryAfter := runError(err)
			_ = edge.WriteEvent(w, 0, client.StreamEventError, client.ErrorBody(code, err.Error(), int64(retryAfter)*1000))
			_ = rc.Flush()
			return
		}
	}
}
