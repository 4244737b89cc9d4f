package obs_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"solarcore/internal/obs"
)

// FuzzReadEvents fuzzes the JSONL decoder with arbitrary byte streams:
// whatever arrives — truncated lines, duplicate payloads, wrong versions,
// binary garbage — ReadEvents must either fail cleanly or return events
// that all satisfy the envelope invariants. It must never panic. Every
// event it returns must also survive the one encode path: re-emitted
// through JSONLSink.On and decoded again, it comes back deeply equal.
func FuzzReadEvents(f *testing.F) {
	// A valid line of each payload family, plus the classic breakages.
	f.Add(`{"v":1,"type":"run_start","run_start":{}}`)
	f.Add(`{"v":1,"type":"access","access":{"method":"GET","path":"/healthz","status":200,"dur_ms":0.1,"bytes":16}}`)
	f.Add(`{"v":1,"type":"run_end","run_end":{}}` + "\n" + `{"v":1,"type":"fault","fault":{}}`)
	f.Add(`{"v":2,"type":"tick","tick":{}}`)               // wrong schema version
	f.Add(`{"v":1,"type":"tick"}`)                         // no payload
	f.Add(`{"v":1,"type":"tick","tick":{},"alloc":{}}`)    // two payloads
	f.Add(`{"v":1,"type":"alloc","tick":{}}`)              // mismatched payload
	f.Add(`{"v":1,"type":"access","access":{"status":`)    // truncated mid-value
	f.Add(`{"v":1,"type":"watchdog","watchdog":{}}{"v":1`) // trailing fragment
	f.Add("\x00\x01\x02 not json at all")
	f.Add(`[]`)
	f.Add(`{"v":1,"type":"track","track":{"levels":[0.5,1.5]}}`)
	// Torn tails: a valid prefix followed by a crash-truncated final line
	// (no trailing newline) must salvage the prefix with io.ErrUnexpectedEOF.
	f.Add(`{"v":1,"type":"run_end","run_end":{}}` + "\n" + `{"v":1,"type":"tick","tick":{"minu`)
	f.Add(`{"v":1,"type":"gap","gap":{"dropped":3}}` + "\n" + `{"v":1,`)
	// An access-log line with every field set.
	f.Add(`{"v":1,"type":"access","access":{"method":"POST","path":"/v1/run","status":200,` +
		`"dur_ms":12.5,"bytes":4096,"cache":"coalesced","remote":"127.0.0.1:9"}}`)
	// One populated line of each of the ten payload kinds.
	f.Add(strings.Join([]string{
		`{"v":1,"type":"run_start","run_start":{"runner":"MPPT","policy":"MPPT&Opt","mix":"HM2","label":"Jul@AZ","cores":8,"start_min":300,"end_min":1140}}`,
		`{"v":1,"type":"track","track":{"minute":300,"k":3.0625,"steps":41,"overload":false,"load_w":55.5,"sensed_w":55.125,"levels":[3,-1,0]}}`,
		`{"v":1,"type":"alloc","alloc":{"minute":301,"dir":-1,"reason":"shed","demand_w":50.25,"budget_w":49.5}}`,
		`{"v":1,"type":"tick","tick":{"minute":301,"budget_w":49.5,"demand_w":48.75,"on_solar":true}}`,
		`{"v":1,"type":"fault","fault":{"minute":600,"kind":"sensor-drop","intensity":1,"phase":"begin"}}`,
		`{"v":1,"type":"watchdog","watchdog":{"minute":610,"from":"suspect","to":"fallback","reason":"trip","fallback_budget_w":21.5}}`,
		`{"v":1,"type":"run_end","run_end":{"runner":"MPPT","solar_wh":400.125,"utility_wh":20.5,"solar_min":500,"daytime_min":840,"overloads":2,"transitions":1234,"ats_switches":4,"watchdog_trips":1,"recovery_min":30}}`,
		`{"v":1,"type":"access","access":{"method":"GET","path":"/healthz","status":200,"dur_ms":0.1,"bytes":16}}`,
		`{"v":1,"type":"store","store":{"op":"quarantine","key":"abc123","detail":"checksum mismatch"}}`,
		`{"v":1,"type":"gap","gap":{"dropped":3}}`,
	}, "\n"))
	f.Fuzz(func(t *testing.T, line string) {
		// Whether ReadEvents fails or salvages a torn tail, every event it
		// hands back must satisfy the envelope invariants.
		events, err := obs.ReadEvents(strings.NewReader(line))
		for i, ev := range events {
			if verr := ev.Validate(); verr != nil {
				t.Fatalf("ReadEvents returned event %d that fails Validate (err=%v): %v\ninput: %q",
					i, err, verr, line)
			}
		}
		if err != nil && len(events) > 0 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("partial events with a non-torn error %v\ninput: %q", err, line)
		}
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		for _, ev := range events {
			sink.On(ev)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := obs.ReadEvents(&buf)
		if err != nil || !reflect.DeepEqual(again, events) {
			t.Fatalf("re-emitted events do not decode equal (err=%v):\ngot  %+v\nwant %+v\ninput: %q",
				err, again, events, line)
		}
	})
}
