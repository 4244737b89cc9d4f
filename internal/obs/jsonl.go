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
)

// TypeStore is the Event.Type discriminator of a StoreEvent line.
const TypeStore = "store"

// TypeGap is the Event.Type discriminator of a GapEvent line.
const TypeGap = "gap"

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
	var set []string
	if e.RunStart != nil {
		set = append(set, TypeRunStart)
	}
	if e.Track != nil {
		set = append(set, TypeTrack)
	}
	if e.Alloc != nil {
		set = append(set, TypeAlloc)
	}
	if e.Tick != nil {
		set = append(set, TypeTick)
	}
	if e.RunEnd != nil {
		set = append(set, TypeRunEnd)
	}
	if e.Fault != nil {
		set = append(set, TypeFault)
	}
	if e.Watchdog != nil {
		set = append(set, TypeWatchdog)
	}
	if e.Access != nil {
		set = append(set, TypeAccess)
	}
	if e.Store != nil {
		set = append(set, TypeStore)
	}
	if e.Gap != nil {
		set = append(set, TypeGap)
	}
	if len(set) != 1 {
		return fmt.Errorf("obs: event %q carries %d payloads (want exactly 1)", e.Type, len(set))
	}
	if set[0] != e.Type {
		return fmt.Errorf("obs: event type %q does not match payload %q", e.Type, set[0])
	}
	return nil
}

// JSONLSink is an Observer that appends one JSON line per event to a
// writer. Writes are buffered; call Flush (or Close) when the run is
// done. The first write error sticks: subsequent events are dropped and
// Err/Flush/Close report it. A JSONLSink is safe for concurrent use.
type JSONLSink struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink builds a sink writing to w. The caller retains ownership
// of w (Close flushes the sink but does not close w).
func NewJSONLSink(w io.Writer) *JSONLSink {
	buf := bufio.NewWriter(w)
	return &JSONLSink{buf: buf, enc: json.NewEncoder(buf)}
}

// On implements Observer: it stamps the schema version and appends ev
// as one line. Any envelope is accepted, the access-log and store
// events included. A TrackEvent's Levels slice is encoded, not retained.
func (s *JSONLSink) On(ev Event) {
	ev.V = SchemaVersion
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(ev)
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
		torn := false
		switch {
		case rerr == io.EOF:
			if len(bytes.TrimSpace(raw)) == 0 {
				return events, nil
			}
			torn = true
		case rerr != nil:
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, rerr)
		}
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 {
			continue
		}
		var ev Event
		err := json.Unmarshal(trimmed, &ev)
		if err == nil {
			err = ev.Validate()
		}
		if err != nil {
			if torn {
				return events, fmt.Errorf("obs: jsonl line %d truncated: %w (%v)", line, io.ErrUnexpectedEOF, err)
			}
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		events = append(events, ev)
		if torn {
			return events, nil
		}
	}
}
