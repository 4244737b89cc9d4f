package client_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"solarcore/client"
	"solarcore/internal/edge"
	"solarcore/internal/obs"
)

// frame renders ev as the SSE frame solard writes for it.
func frame(t testing.TB, id uint64, ev obs.Event) []byte {
	ev.V = obs.SchemaVersion
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := edge.WriteEvent(&buf, id, ev.Type, data); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzStreamFrames holds the SSE parser, which solargate runs on every
// relayed backend frame, to three properties for any byte stream: no
// input panics, ids come out strictly increasing until the stream ends
// (cleanly or with an error), and every decoded frame re-encodes through
// edge.WriteEvent to bytes that decode to the same event.
func FuzzStreamFrames(f *testing.F) {
	start := frame(f, 1, obs.Event{Type: obs.TypeRunStart, RunStart: &obs.RunStartEvent{Runner: "MPPT", Policy: "MPPT&Opt", Mix: "HM2"}})
	tick := frame(f, 2, obs.Event{Type: obs.TypeTick, Tick: &obs.TickEvent{Minute: 361, BudgetW: 40, DemandW: 35, OnSolar: true}})
	gap := frame(f, 0, obs.Event{Type: obs.TypeGap, Gap: &obs.GapEvent{Dropped: 3}})
	end := frame(f, 3, obs.Event{Type: obs.TypeRunEnd, RunEnd: &obs.RunEndEvent{Runner: "MPPT", SolarWh: 100}})
	clean := bytes.Join([][]byte{start, tick, gap, end}, nil)
	f.Add(clean, false)
	f.Add(bytes.Join([][]byte{start, []byte(": hb\n\n"), tick, tick, start, end}, nil), true)
	f.Add([]byte("id: 7\r\nevent: tick\r\ndata: {\"v\":1,\r\ndata: \"type\":\"tick\",\"tick\":{}}\r\n\r\n"), false)
	f.Add(append(append([]byte(nil), start...), "event: error\ndata: {\"error\":{\"code\":\"internal\"}}\n\n"...), false)
	f.Add(clean[:len(clean)/2], false)
	f.Add([]byte("id: 18446744073709551615\nid: x\n\n"), false)
	f.Fuzz(func(t *testing.T, wire []byte, heartbeats bool) {
		st := client.NewStreamReader(bytes.NewReader(wire), heartbeats)
		var last uint64
		for {
			ev, err := st.Next()
			if err != nil {
				return // io.EOF or a terminal error: either ends the stream
			}
			if ev.Type == client.TypeHeartbeat {
				continue
			}
			if ev.ID > 0 {
				if ev.ID <= last {
					t.Fatalf("id %d after %d", ev.ID, last)
				}
				last = ev.ID
			}
			var buf bytes.Buffer
			if err := edge.WriteEvent(&buf, ev.ID, ev.Type, ev.Data); err != nil {
				t.Fatal(err)
			}
			again, err := client.NewStreamReader(&buf, false).Next()
			if err != nil {
				t.Fatalf("re-encoded frame %q does not decode: %v", buf.Bytes(), err)
			}
			if again.ID != ev.ID || again.Type != ev.Type || !bytes.Equal(again.Data, ev.Data) ||
				!reflect.DeepEqual(again.Event, ev.Event) {
				t.Fatalf("re-encoded frame decodes to %+v, want %+v", again, ev)
			}
		}
	})
}

// FuzzReadSweepRequest holds the /v1/sweep decoder, which solard and
// solargate run on every sweep body, to its contract for any body and
// run limit: it either fails with a 400 *APIError or returns 1..maxRuns
// runs that all pass RunSpec.Validate.
func FuzzReadSweepRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"runs":[{"site":"AZ","season":"Jul","mix":"HM2","step_min":8}]}`), uint8(4))
	f.Add([]byte(`{"runs":[{"day":1},{"v":1,"policy":"MPPT&RR","timeout_ms":50}]}`), uint8(1))
	f.Add([]byte(`{"runs":[{"site":"XX"}]}`), uint8(4))
	f.Add([]byte(`{"v":2,"runs":[{}]}`), uint8(4))
	f.Add([]byte(`{"runs":[]}`), uint8(4))
	f.Add([]byte(`{"runs":[{"step_min":-1}]} trailing`), uint8(4))
	f.Add([]byte(`{"runs":[{"unknown":1}]}`), uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, limit uint8) {
		maxRuns := int(limit)
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
		req, e := client.ReadSweepRequest(httptest.NewRecorder(), r, maxRuns)
		if e != nil {
			if e.Status != http.StatusBadRequest {
				t.Fatalf("rejection status %d, want 400: %v", e.Status, e)
			}
			return
		}
		if len(req.Runs) == 0 || len(req.Runs) > maxRuns {
			t.Fatalf("accepted %d runs against a limit of %d", len(req.Runs), maxRuns)
		}
		for i, run := range req.Runs {
			if err := run.Validate(); err != nil {
				t.Fatalf("accepted runs[%d] fails Validate: %v", i, err)
			}
		}
	})
}
