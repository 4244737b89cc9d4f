package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"solarcore/internal/obs"
)

// SSE wire vocabulary of GET /v1/stream (DESIGN.md §17). Every frame is
// `id`/`event`/`data` lines terminated by a blank line; `id` is the
// event's sequence number (absent on gap frames, so a resume cursor
// stays pinned to the last real event), `event` is the obs type
// discriminator, `data` is the JSONL envelope line byte-identical to
// what the server's JSONL sink writes.
const (
	// ContentTypeSSE is the /v1/stream response content type.
	ContentTypeSSE = "text/event-stream"
	// StreamEventError names the terminal SSE frame a failing feed emits;
	// its data is the v1 error envelope (ErrorBody / DecodeError).
	StreamEventError = "error"
	// TypeHeartbeat is the synthetic StreamEvent type surfaced for server
	// keep-alive comments when StreamRequest.Heartbeats is set.
	TypeHeartbeat = "heartbeat"
)

// StreamRequest opens one /v1/stream subscription: the run identity
// (exactly the /v1/run request — same spec, same cache key) plus the
// stream-only transport fields.
type StreamRequest struct {
	RunRequest
	// LastEventID resumes the stream strictly after this sequence number;
	// zero streams from the first event.
	LastEventID uint64
	// Heartbeats surfaces server keep-alive comments between frames as
	// TypeHeartbeat events instead of skipping them silently; a comment
	// inside a frame is ignored either way. Relays (solargate) set this
	// so idle upstream streams keep their own clients alive.
	Heartbeats bool
}

// StreamEvent is one decoded element of a run's event stream.
type StreamEvent struct {
	// ID is the event's sequence number (the SSE id). Zero on gap and
	// heartbeat events, which carry no id.
	ID uint64
	// Type is the event type discriminator (obs.TypeTick, obs.TypeGap, …
	// or TypeHeartbeat).
	Type string
	// Data is the raw JSONL envelope line; nil for heartbeats.
	Data json.RawMessage
	// Event is the decoded, validated envelope; nil for heartbeats.
	Event *obs.Event
}

// Stream iterates a /v1/stream response. Next is not safe for concurrent
// use; Close may be called from any goroutine (it cancels the underlying
// body, unblocking Next).
type Stream struct {
	body io.ReadCloser
	br   *bufio.Reader
	hb   bool

	lastID uint64
	err    error
}

// Stream opens a live (or replayed) event feed for req's spec. The
// returned iterator delivers every obs event of the run in order,
// ending with io.EOF after the terminal event of a clean stream, or a
// typed error: *APIError for envelope failures (including mid-stream
// SSE error frames, which carry Status 0 — the HTTP status was already
// committed), validation errors for frames that do not satisfy the
// envelope invariants. The stream lives under ctx: cancel it to abandon
// watching without disturbing the run.
func (c *Client) Stream(ctx context.Context, req StreamRequest) (*Stream, error) {
	if req.V == 0 {
		req.V = WireVersion
	}
	spec, err := json.Marshal(req.RunRequest)
	if err != nil {
		return nil, fmt.Errorf("client: marshal spec: %w", err)
	}
	u := c.base + "/v1/stream?spec=" + url.QueryEscape(string(spec))
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("client: build stream request: %w", err)
	}
	hreq.Header.Set("Accept", ContentTypeSSE)
	if req.LastEventID > 0 {
		hreq.Header.Set(HeaderLastEventID, strconv.FormatUint(req.LastEventID, 10))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: GET /v1/stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		_ = resp.Body.Close()
		return nil, DecodeError(resp.StatusCode, resp.Header, body)
	}
	return &Stream{
		body:   resp.Body,
		br:     bufio.NewReader(resp.Body),
		hb:     req.Heartbeats,
		lastID: req.LastEventID,
	}, nil
}

// LastEventID returns the sequence number of the last identified event
// delivered — the resume cursor for a reconnect after a transport
// failure.
func (s *Stream) LastEventID() uint64 { return s.lastID }

// Close releases the stream. Safe after an error and more than once.
func (s *Stream) Close() error { return s.body.Close() }

// Next returns the next event. The first failure sticks: a terminal SSE
// error frame, a malformed or invalid event, or the transport error. A
// clean stream ends with io.EOF after its final event.
func (s *Stream) Next() (StreamEvent, error) {
	if s.err != nil {
		return StreamEvent{}, s.err
	}
	ev, err := s.next()
	if err != nil {
		s.err = err
	}
	return ev, err
}

func (s *Stream) next() (StreamEvent, error) {
	var id uint64
	var name string
	var data []byte
	have := false
	for {
		raw, err := s.br.ReadBytes('\n')
		if err != nil {
			if err == io.EOF && !have && len(bytes.TrimSpace(raw)) == 0 {
				return StreamEvent{}, io.EOF
			}
			return StreamEvent{}, fmt.Errorf("client: stream truncated mid-frame: %w", io.ErrUnexpectedEOF)
		}
		line := bytes.TrimRight(raw, "\r\n")
		switch {
		case len(line) == 0:
			if !have {
				continue // stray blank between frames
			}
			if id > 0 && id <= s.lastID {
				// A frame at or before the resume cursor — an upstream
				// replaying from earlier than asked — is dropped, so ids
				// come out strictly increasing.
				id, name, data, have = 0, "", data[:0], false
				continue
			}
			// The SSE spec strips the last data line's newline.
			return s.dispatch(id, name, bytes.TrimSuffix(data, []byte("\n")))
		case line[0] == ':':
			// A comment is not part of any frame. Between frames it is
			// the server's keep-alive; inside one it is ignored, as the
			// SSE spec says, so the fields read so far are kept.
			if s.hb && !have {
				return StreamEvent{Type: TypeHeartbeat}, nil
			}
		default:
			field, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(field) {
			case "id":
				n, perr := strconv.ParseUint(string(value), 10, 64)
				if perr != nil {
					return StreamEvent{}, fmt.Errorf("client: bad stream id %q", value)
				}
				id, have = n, true
			case "event":
				name, have = string(value), true
			case "data":
				// The SSE spec joins a frame's data lines with "\n"; the
				// servers send one JSONL line per frame.
				data = append(append(data, value...), '\n')
				have = true
			default:
				// Unknown SSE fields are ignored (forward compatibility).
			}
		}
	}
}

// dispatch decodes one complete SSE frame into a StreamEvent or a
// terminal error.
func (s *Stream) dispatch(id uint64, name string, data []byte) (StreamEvent, error) {
	if name == StreamEventError {
		// The feed failed after the stream was committed: the envelope
		// arrives as event data. Status 0 marks a mid-stream failure.
		return StreamEvent{}, DecodeError(0, nil, data)
	}
	ev, err := obs.DecodeEvent(data)
	if err != nil {
		return StreamEvent{}, fmt.Errorf("client: malformed stream event %q: %w", data, err)
	}
	if name != "" && name != ev.Type {
		return StreamEvent{}, fmt.Errorf("client: stream frame name %q does not match payload type %q", name, ev.Type)
	}
	if id > 0 {
		s.lastID = id
	}
	return StreamEvent{ID: id, Type: ev.Type, Data: append([]byte(nil), data...), Event: &ev}, nil
}
