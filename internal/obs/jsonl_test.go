package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// drive sends one of each run event through o in run order.
func drive(o Observer) {
	e := NewEmitter(o)
	e.RunStart(RunStartEvent{Runner: "MPPT", Policy: "MPPT&Opt", Mix: "HM2",
		Label: "Jul@AZ", Cores: 8, StartMin: 300, EndMin: 1140})
	e.Track(TrackEvent{Minute: 300, K: 3.0625, Steps: 41, LoadW: 55.5,
		SensedW: 55.125, Levels: []int{3, 3, -1, 2, 0, 1, 3, 2}})
	e.Alloc(AllocEvent{Minute: 301, Dir: -1, Reason: AllocShed, DemandW: 50.25, BudgetW: 49.5})
	e.Tick(TickEvent{Minute: 301, BudgetW: 49.5, DemandW: 48.75, OnSolar: true})
	e.RunEnd(RunEndEvent{Runner: "MPPT", SolarWh: 400.125, UtilityWh: 20.5,
		SolarMin: 500, DaytimeMin: 840, Overloads: 2, Transitions: 1234, ATSSwitches: 4})
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	drive(sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	wantTypes := []string{TypeRunStart, TypeTrack, TypeAlloc, TypeTick, TypeRunEnd}
	for i, ev := range events {
		if ev.Type != wantTypes[i] {
			t.Errorf("event %d type = %q, want %q", i, ev.Type, wantTypes[i])
		}
		if ev.V != SchemaVersion {
			t.Errorf("event %d version = %d, want %d", i, ev.V, SchemaVersion)
		}
	}

	// Re-encoding the decoded events must reproduce the stream byte for
	// byte: the schema round-trips exactly.
	var buf2 bytes.Buffer
	enc := json.NewEncoder(&buf2)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	var buf1 bytes.Buffer
	sink1 := NewJSONLSink(&buf1)
	drive(sink1)
	if err := sink1.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Errorf("re-encoded stream differs from original:\n%s\nvs\n%s", buf1.Bytes(), buf2.Bytes())
	}

	// Field-level round trip of a representative payload.
	want := TrackEvent{Minute: 300, K: 3.0625, Steps: 41, LoadW: 55.5,
		SensedW: 55.125, Levels: []int{3, 3, -1, 2, 0, 1, 3, 2}}
	if got := events[1].Track; got == nil || !reflect.DeepEqual(*got, want) {
		t.Errorf("track payload = %+v, want %+v", got, want)
	}
}

func TestStoreEventRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.On(Event{Type: TypeStore, Store: &StoreEvent{Op: StoreOpWarmStart, Records: 12, Bytes: 4096, DurMs: 1.5}})
	sink.On(Event{Type: TypeStore, Store: &StoreEvent{Op: StoreOpQuarantine, Key: "abc123", Detail: "checksum mismatch"}})
	sink.On(Event{Type: TypeStore, Store: &StoreEvent{Op: StoreOpEvict, Key: "def456", Bytes: 2048}})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Type != TypeStore || ev.Store == nil {
			t.Fatalf("event %d = %+v, want a %q payload", i, ev, TypeStore)
		}
	}
	want := StoreEvent{Op: StoreOpWarmStart, Records: 12, Bytes: 4096, DurMs: 1.5}
	if got := *events[0].Store; got != want {
		t.Errorf("warm-start payload = %+v, want %+v", got, want)
	}
	if events[1].Store.Detail != "checksum mismatch" {
		t.Errorf("quarantine detail = %q, want the failure text", events[1].Store.Detail)
	}
}

func TestEventValidate(t *testing.T) {
	tick := &TickEvent{Minute: 1}
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"valid", Event{V: SchemaVersion, Type: TypeTick, Tick: tick}, true},
		{"bad version", Event{V: 99, Type: TypeTick, Tick: tick}, false},
		{"no payload", Event{V: SchemaVersion, Type: TypeTick}, false},
		{"two payloads", Event{V: SchemaVersion, Type: TypeTick, Tick: tick, Alloc: &AllocEvent{}}, false},
		{"mismatched type", Event{V: SchemaVersion, Type: TypeTrack, Tick: tick}, false},
	}
	for _, c := range cases {
		if err := c.ev.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func TestReadEventsRejectsMalformedLine(t *testing.T) {
	in := `{"v":1,"type":"tick","tick":{"minute":1,"budget_w":2,"demand_w":1,"on_solar":true}}
{"v":1,"type":"tick"}
`
	_, err := ReadEvents(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 validation error, got %v", err)
	}
}

func TestReadEventsTornFinalLine(t *testing.T) {
	valid := `{"v":1,"type":"tick","tick":{"minute":1,"budget_w":2,"demand_w":1,"on_solar":true}}`
	cases := []struct {
		name string
		in   string
		want int  // events salvaged
		torn bool // error wraps io.ErrUnexpectedEOF
	}{
		// A crash mid-write leaves a half line with no trailing newline:
		// the intact prefix is salvageable, the cause is identifiable.
		{"truncated mid-value", valid + "\n" + `{"v":1,"type":"tick","tick":{"minu`, 1, true},
		{"truncated mid-envelope", valid + "\n" + valid + "\n" + `{"v":1,`, 2, true},
		{"torn only line", `{"v":1,"ty`, 0, true},
		// A final line that parses whole but merely lost its newline is a
		// complete stream, not a torn one.
		{"valid line missing newline", valid + "\n" + valid, 2, false},
		{"single valid line missing newline", valid, 1, false},
	}
	for _, c := range cases {
		events, err := ReadEvents(strings.NewReader(c.in))
		if c.torn {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", c.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: err = %v, want nil", c.name, err)
		}
		if len(events) != c.want {
			t.Errorf("%s: salvaged %d events, want %d", c.name, len(events), c.want)
		}
		for i, ev := range events {
			if verr := ev.Validate(); verr != nil {
				t.Errorf("%s: salvaged event %d invalid: %v", c.name, i, verr)
			}
		}
	}
	// Mid-file corruption (the bad line has a newline after it) stays a
	// hard error: only a torn *tail* is salvage-worthy.
	if _, err := ReadEvents(strings.NewReader(`{"v":1,` + "\n" + valid + "\n")); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("mid-file corruption: err = %v, want hard non-EOF error", err)
	}
}

type failWriter struct{ calls int }

var errBoom = errors.New("boom")

func (f *failWriter) Write(p []byte) (int, error) { f.calls++; return 0, errBoom }

func TestJSONLSinkStickyError(t *testing.T) {
	// A tiny bufio buffer forces the write through to the failing writer.
	sink := NewJSONLSink(&failWriter{})
	e := NewEmitter(sink)
	for i := 0; i < 5000; i++ { // enough volume to overflow the buffer
		e.Tick(TickEvent{Minute: float64(i)})
	}
	if err := sink.Err(); !errors.Is(err, errBoom) {
		t.Errorf("Err() = %v, want %v", err, errBoom)
	}
	if err := sink.Close(); !errors.Is(err, errBoom) {
		t.Errorf("Close() = %v, want sticky %v", err, errBoom)
	}
}

// TestEventLineCodec pins the codec's line shape: the prefix spells the
// schema version, every event type round-trips through EventEncoder,
// EventType and DecodeEvent, and lines EventEncoder does not write are
// rejected by both readers.
func TestEventLineCodec(t *testing.T) {
	if want := fmt.Sprintf(`{"v":%d,"type":"`, SchemaVersion); linePrefix != want {
		t.Fatalf("linePrefix %q does not spell SchemaVersion (%q)", linePrefix, want)
	}
	all := []Event{
		{Type: TypeRunStart, RunStart: &RunStartEvent{Runner: "MPPT"}},
		{Type: TypeTrack, Track: &TrackEvent{Minute: 300, Levels: []int{3, -1}}},
		{Type: TypeAlloc, Alloc: &AllocEvent{Minute: 301, Reason: AllocShed}},
		{Type: TypeTick, Tick: &TickEvent{Minute: 301, BudgetW: 49.5}},
		{Type: TypeRunEnd, RunEnd: &RunEndEvent{Runner: "MPPT"}},
		{Type: TypeFault, Fault: &FaultEvent{Minute: 600, Kind: "cloud"}},
		{Type: TypeWatchdog, Watchdog: &WatchdogEvent{Minute: 610}},
		{Type: TypeAccess, Access: &AccessEvent{Method: "GET", Status: 200}},
		{Type: TypeStore, Store: &StoreEvent{Op: StoreOpEvict}},
		{Type: TypeGap, Gap: &GapEvent{Dropped: 3}},
	}
	if len(all) != len(eventTypes) {
		t.Fatalf("%d events for %d types", len(all), len(eventTypes))
	}
	var enc EventEncoder
	for _, ev := range all {
		line, err := enc.Encode(ev)
		if err != nil {
			t.Fatal(err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		if typ, ok := EventType(line); !ok || typ != ev.Type {
			t.Errorf("EventType(%s) = %q, %t; want %q", line, typ, ok, ev.Type)
		}
		if got, err := DecodeEvent(line); err != nil || got.Type != ev.Type {
			t.Errorf("DecodeEvent(%s) = %+v, %v", line, got, err)
		}
	}
	rejects := []string{
		`{"type":"tick","v":1,"tick":{}}`,      // no prefix: keys reordered
		`{ "v":1,"type":"tick","tick":{}}`,     // no prefix: spaced
		`{"v":2,"type":"tick","tick":{}}`,      // another schema version
		`{"v":1,"type":"","tick":{}}`,          // empty type
		`{"v":1,"type":"tock","tick":{}}`,      // unknown type
		`{"v":1,"type":"ti\u0063k","tick":{}}`, // escaped type
		`{"v":1,"type":"tick`,                  // truncated prefix
		`{"v":1,"ty`,                           // truncated prefix
		``,
	}
	for _, line := range rejects {
		if typ, ok := EventType([]byte(line)); ok {
			t.Errorf("EventType(%s) = %q, want rejected", line, typ)
		}
		if ev, err := DecodeEvent([]byte(line)); err == nil {
			t.Errorf("DecodeEvent(%s) = %+v, want rejected", line, ev)
		}
	}
	// A repeated type key decodes to its last value; the prefix names
	// the first, so DecodeEvent rejects the line.
	if ev, err := DecodeEvent([]byte(`{"v":1,"type":"tick","type":"alloc","alloc":{}}`)); err == nil {
		t.Errorf("DecodeEvent accepted a line whose prefix names another type: %+v", ev)
	}
	if _, err := enc.Encode(Event{Type: TypeTick, Tick: &TickEvent{BudgetW: math.NaN()}}); err == nil {
		t.Error("EventEncoder encoded a NaN")
	}
}
