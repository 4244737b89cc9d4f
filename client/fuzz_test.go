package client_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

// drain reads wire to its end and returns the events other than
// heartbeats, the resume cursor and the error that ended the stream.
func drain(wire []byte, heartbeats bool) (evs []client.StreamEvent, lastID uint64, err error) {
	st := client.NewStreamReader(bytes.NewReader(wire), heartbeats)
	for {
		ev, err := st.Next()
		if err != nil {
			return evs, st.LastEventID(), err
		}
		if ev.Type != client.TypeHeartbeat {
			evs = append(evs, ev)
		}
	}
}

// sameFrames reports where reading wire with heartbeats differs from
// reading it without, apart from the heartbeats themselves.
func sameFrames(t *testing.T, wire []byte) {
	t.Helper()
	plain, plainID, plainErr := drain(wire, false)
	hb, hbID, hbErr := drain(wire, true)
	if fmt.Sprint(plainErr) != fmt.Sprint(hbErr) || plainID != hbID || !reflect.DeepEqual(plain, hb) {
		t.Fatalf("heartbeats change the stream %q:\nwithout: %+v, cursor %d, %v\nwith:    %+v, cursor %d, %v",
			wire, plain, plainID, plainErr, hb, hbID, hbErr)
	}
}

// TestStreamCommentInsideFrame pins the SSE comment rule: a comment line
// inside a frame is ignored, so a relay that surfaces heartbeats keeps
// the frame's id and event, and only comments between frames become
// heartbeats.
func TestStreamCommentInsideFrame(t *testing.T) {
	tick := `{"v":1,"type":"tick","tick":{"minute":361}}`
	inside := []byte("id: 5\nevent: tick\n: hb\ndata: " + tick + "\n\n")
	sameFrames(t, inside)
	evs, lastID, err := drain(inside, true)
	if err != io.EOF || len(evs) != 1 || evs[0].ID != 5 || evs[0].Type != obs.TypeTick || lastID != 5 {
		t.Fatalf("comment inside a frame: %+v, cursor %d, %v; want the tick with id 5", evs, lastID, err)
	}
	for _, wire := range []string{
		": hb\nid: 5\ndata: " + tick + "\n: hb\n\n: hb\n\n",
		"id: 5\n: hb\n: hb\nevent: tick\ndata: " + tick + "\n\n",
		"id: 5\nevent: tick\ndata: " + tick + "\n: hb\n",
	} {
		sameFrames(t, []byte(wire))
	}
	st := client.NewStreamReader(strings.NewReader(": hb\n\nid: 5\ndata: "+tick+"\n\n: hb\n"), true)
	var types []string
	for {
		ev, err := st.Next()
		if err != nil {
			break
		}
		types = append(types, ev.Type)
	}
	if want := []string{client.TypeHeartbeat, obs.TypeTick, client.TypeHeartbeat}; !reflect.DeepEqual(types, want) {
		t.Errorf("comments between frames gave %v, want %v", types, want)
	}
}

// FuzzStreamFrames holds the SSE parser, which solargate runs on every
// relayed backend frame, to four properties for any byte stream: no
// input panics, ids come out strictly increasing until the stream ends
// (cleanly or with an error), every decoded frame re-encodes through
// edge.WriteEvent to bytes that decode to the same event, and surfacing
// heartbeats changes nothing but the heartbeats.
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
	f.Add(append([]byte("id: 5\nevent: tick\n: hb\n"), tick[bytes.Index(tick, []byte("data:")):]...), true)
	f.Fuzz(func(t *testing.T, wire []byte, heartbeats bool) {
		sameFrames(t, wire)
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
