package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SchemaVersion is the JSONL event-stream schema version. Every emitted
// line carries it in the "v" field; ReadEvents rejects any other value.
// Bump it only with a migration note in DESIGN.md §10.
const SchemaVersion = 1

// Event type discriminators (the "type" field of a JSONL line).
const (
	TypeRunStart = "run_start"
	TypeTrack    = "track"
	TypeAlloc    = "alloc"
	TypeTick     = "tick"
	TypeRunEnd   = "run_end"
	TypeFault    = "fault"
	TypeWatchdog = "watchdog"
	TypeAccess   = "access"
	TypeStore    = "store"
	TypeGap      = "gap"
)

// GapEvent marks a hole in a live event stream: a slow subscriber (or a
// truncated durable tail) missed Dropped events that the hub's bounded
// ring had already discarded (DESIGN.md §17). A stream carrying gap
// lines is explicitly gapped — consumers see the loss instead of a
// silently shortened sequence.
type GapEvent struct {
	// Dropped is how many consecutive events are missing before the next
	// line of the stream.
	Dropped uint64 `json:"dropped"`
}

// Store-event operation labels (StoreEvent.Op).
const (
	// StoreOpWarmStart is the one-line boot summary of a directory scan.
	StoreOpWarmStart = "warm_start"
	// StoreOpQuarantine records a torn or corrupt record moved aside.
	StoreOpQuarantine = "quarantine"
	// StoreOpEvict records a record deleted by byte-budget pressure.
	StoreOpEvict = "evict"
)

// StoreEvent is one durable-result-store lifecycle record
// (internal/store, DESIGN.md §16): warm starts, quarantines and
// byte-budget evictions, on the same versioned JSONL envelope as the
// simulation and access streams.
type StoreEvent struct {
	// Op is one of the StoreOp* labels.
	Op string `json:"op"`
	// Key is the RunSpec hash concerned; empty for directory-wide ops.
	Key string `json:"key,omitempty"`
	// Records is the record count involved (warm start: records loaded).
	Records int `json:"records,omitempty"`
	// Bytes is the on-disk byte count after the operation.
	Bytes int64 `json:"bytes,omitempty"`
	// DurMs is the operation wall time in milliseconds; zero when the
	// store runs without a clock.
	DurMs float64 `json:"dur_ms,omitempty"`
	// Detail carries the failure text of a quarantine, when known.
	Detail string `json:"detail,omitempty"`
}

// Event is the JSONL envelope: one line per event, with Type selecting
// which single payload pointer is populated. The envelope round-trips
// exactly through encoding/json (Go emits float64 with the shortest
// representation that parses back to the same value), which the schema
// test asserts.
type Event struct {
	// V is the schema version (SchemaVersion).
	V int `json:"v"`
	// Type is one of the Type* discriminators.
	Type string `json:"type"`

	RunStart *RunStartEvent `json:"run_start,omitempty"`
	Track    *TrackEvent    `json:"track,omitempty"`
	Alloc    *AllocEvent    `json:"alloc,omitempty"`
	Tick     *TickEvent     `json:"tick,omitempty"`
	RunEnd   *RunEndEvent   `json:"run_end,omitempty"`
	Fault    *FaultEvent    `json:"fault,omitempty"`
	Watchdog *WatchdogEvent `json:"watchdog,omitempty"`
	Access   *AccessEvent   `json:"access,omitempty"`
	Store    *StoreEvent    `json:"store,omitempty"`
	Gap      *GapEvent      `json:"gap,omitempty"`
}

// Validate checks the envelope invariants: a known schema version and
// exactly one payload, matching the Type discriminator.
func (e Event) Validate() error {
	if e.V != SchemaVersion {
		return fmt.Errorf("obs: event schema version %d (want %d)", e.V, SchemaVersion)
	}
	set := [len(eventTypes)]bool{e.RunStart != nil, e.Track != nil, e.Alloc != nil, e.Tick != nil,
		e.RunEnd != nil, e.Fault != nil, e.Watchdog != nil, e.Access != nil, e.Store != nil, e.Gap != nil}
	n, payload := 0, ""
	for i, ok := range set {
		if ok {
			n, payload = n+1, eventTypes[i]
		}
	}
	if n != 1 {
		return fmt.Errorf("obs: event %q carries %d payloads (want exactly 1)", e.Type, n)
	}
	if payload != e.Type {
		return fmt.Errorf("obs: event type %q does not match payload %q", e.Type, payload)
	}
	return nil
}

// eventTypes lists the Type* discriminators in Event's payload order.
var eventTypes = [...]string{TypeRunStart, TypeTrack, TypeAlloc, TypeTick, TypeRunEnd,
	TypeFault, TypeWatchdog, TypeAccess, TypeStore, TypeGap}

// linePrefix opens every encoded line: encoding/json writes Event's V
// and Type fields first.
const linePrefix = `{"v":1,"type":"`

// EventEncoder is the one event encoder; JSONLSink and the stream hub
// write through it. The zero value is ready to use. It is not safe for
// concurrent use.
type EventEncoder struct{ buf bytes.Buffer }

// Encode stamps SchemaVersion on ev and returns its line with the
// trailing newline: json.Marshal's bytes plus '\n', valid until the next
// Encode. A NaN or infinite float fails the encode.
func (e *EventEncoder) Encode(ev Event) ([]byte, error) {
	ev.V = SchemaVersion
	e.buf.Reset()
	if err := json.NewEncoder(&e.buf).Encode(ev); err != nil {
		return nil, err
	}
	return e.buf.Bytes(), nil
}

// DecodeEvent decodes and validates one line (without its newline). The
// line must also open as Encode writes it, so EventType reads the type
// of every line DecodeEvent accepts: reordered, spaced or escaped keys
// and a repeated "type" key are rejected.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, err
	}
	if err := ev.Validate(); err != nil {
		return Event{}, err
	}
	if typ, ok := EventType(line); !ok || typ != ev.Type {
		return Event{}, fmt.Errorf("obs: event line does not open with %s%s\"", linePrefix, ev.Type)
	}
	return ev, nil
}

// EventType reads a line's type from its prefix without decoding it:
// linePrefix, a Type* constant and its closing quote, or false. That is
// enough to route a line whose bytes are already verified.
func EventType(line []byte) (string, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(linePrefix))
	for _, typ := range eventTypes {
		if ok && len(rest) > len(typ) && rest[len(typ)] == '"' && string(rest[:len(typ)]) == typ {
			return typ, true
		}
	}
	return "", false
}

// JSONLSink is an Observer that appends one JSON line per event to a
// writer. Writes are buffered; call Flush (or Close) when the run is
// done. The first write error sticks: subsequent events are dropped and
// Err/Flush/Close report it. A JSONLSink is safe for concurrent use.
type JSONLSink struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc EventEncoder
	err error
}

// NewJSONLSink builds a sink writing to w. The caller retains ownership
// of w (Close flushes the sink but does not close w).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{buf: bufio.NewWriter(w)}
}

// On implements Observer: it appends ev as one EventEncoder line. Any
// envelope is accepted, the access-log and store events included. A
// TrackEvent's Levels slice is encoded, not retained.
func (s *JSONLSink) On(ev Event) {
	s.mu.Lock()
	if s.err == nil {
		var line []byte
		if line, s.err = s.enc.Encode(ev); s.err == nil {
			_, s.err = s.buf.Write(line)
		}
	}
	s.mu.Unlock()
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush drains the buffer and returns the first error seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.buf.Flush()
	}
	return s.err
}

// Close flushes the sink. It does not close the underlying writer.
func (s *JSONLSink) Close() error { return s.Flush() }

// ReadEvents decodes and validates a JSONL event stream written by
// JSONLSink, returning every event in order. It fails on the first
// malformed or schema-violating line, identifying it by number — with
// one exception: a torn final line (no trailing newline and not a valid
// event — the signature of a crash-truncated tail) returns every event
// before it together with an error wrapping io.ErrUnexpectedEOF, so
// callers can keep the salvageable prefix and test the cause with
// errors.Is. A final line that parses and validates but merely lacks its
// newline is accepted whole.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var events []Event
	for line := 1; ; line++ {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, rerr)
		}
		if raw = bytes.TrimSpace(raw); len(raw) > 0 {
			ev, err := DecodeEvent(raw)
			switch {
			case err == nil:
				events = append(events, ev)
			case rerr == io.EOF: // a torn final line
				return events, fmt.Errorf("obs: jsonl line %d truncated: %w (%v)", line, io.ErrUnexpectedEOF, err)
			default:
				return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
			}
		}
		if rerr == io.EOF {
			return events, nil
		}
	}
}
