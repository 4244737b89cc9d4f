package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/sched"
)

// goldenRow is one pinned engine run: how to run it and the SHA-256 of
// its marshalled result and of its JSONL event stream.
type goldenRow struct {
	name         string
	faults       string // fault.ParseSpec grammar; "" runs clean
	tweak        func(*Config)
	run          func(t *testing.T, cfg Config) any
	exercises    func(*DayResult) bool // the path the row exists to cover
	result, jsnl string
}

func goldenMPPT(policy string) func(*testing.T, Config) any {
	return func(t *testing.T, cfg Config) any {
		alloc, ok := sched.ByName(policy)
		if !ok {
			t.Fatalf("unknown policy %q", policy)
		}
		res, err := RunMPPT(cfg, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

func goldenFixed(t *testing.T, cfg Config) any {
	res, err := RunFixed(cfg, 75)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func goldenBattery(t *testing.T, cfg Config) any {
	res, err := RunBattery(cfg, power.BatteryUpperEff)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func goldenBank(t *testing.T, cfg Config) any {
	bank, err := power.NewBank(power.LeadAcidBank(150))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBatteryBank(cfg, bank, 0.93)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// engineTables maps each EngineVersion to the SHA-256 of its golden hash
// table (every row's result and event hash, in order). An output change
// re-pins the rows, bumps EngineVersion and adds an entry; the entries of
// earlier versions stay as they are. A new row that changes no byte of
// the existing ones re-pins the current version's entry.
var engineTables = map[int]string{
	1: "a3c637b21e66936aa00573ff97698ac495751853d1cd18111747652607f62d33",
	2: "538ebb01c1cf7618dca3a5ba944511351ba34632cac316fa5807939106bf31db",
	3: "5247b3faaa65f8ab34e45466090575aa01c85e99eaeea31bfe56f73ad4022d4b",
}

// goldenRows returns the pinned runs of TestEngineGolden in table order.
func goldenRows() []goldenRow {
	return []goldenRow{
		{name: "MPPT&Opt", run: goldenMPPT("MPPT&Opt"),
			result: "18e441376db58a6cf97dcbf8e30f4331d696aa83199c4a703d3642a538782654",
			jsnl:   "3729448f49893eff85e2c594292dd3bb954a141c18332b82083b255614076259"},
		{name: "MPPT&IC", run: goldenMPPT("MPPT&IC"),
			result: "97af1e5741a028720427138594f1ea91b63c92b843e72564e905789ad4e16042",
			jsnl:   "f5cceed7f9ab66b598975055031d99b21b6f7ab7b2fe8ea84a96143784802603"},
		{name: "MPPT&RR", run: goldenMPPT("MPPT&RR"),
			result: "8b226d21e080c24b539cba36453adf193a7a98b0f0910049714796d32f1e5a1f",
			jsnl:   "ca675bb727735e96813acec378578a558aea223b52008dad20fee83768400f0e"},
		{name: "Fixed75", run: goldenFixed,
			result: "b83768d814617e75c592ebf602fb8e0fe8801787b26f291e0c5e9fd66a78eef0",
			jsnl:   "231cf4afd1622c441b072976dbd05b656cef7a84b3867a21015631ad22c1039f"},
		{name: "Battery", run: goldenBattery,
			result: "08812c18cd4a4267a0a74789d9ad95283bdf9e70684bb8978c98ae777240bb73",
			jsnl:   "2d6950eb08c96ab580dc2542eca796315bad4544cdaab5b86b33a700b7b8c7fb"},
		{name: "Bank150", run: goldenBank,
			result: "975b26a219f39d8eb9cc96d5371e1e9fa94f4d19cc2951af45c9fb9743e096d5",
			jsnl:   "22d4d9a921b9e484c5dc22835bba5fe2e1754a357e678ca95a298c76b129f10b"},
		{name: "Opt/sensor-drop", run: goldenMPPT("MPPT&Opt"),
			faults:    "sensor-drop:t0=600,t1=720,i=1",
			exercises: func(r *DayResult) bool { return r.Faults.FallbackPeriods > 0 },
			result:    "c5ce8d1a6ca27a1c0977ba3133b987cc825db37cc4b512cc1d531b270bf5ea5c",
			jsnl:      "8b164d2475296b81003972d28f5d898e02c6f092b6cca7ee8b6549c7c8b892a2"},
		{name: "Opt/mixed", run: goldenMPPT("MPPT&Opt"),
			faults: "cloud:t0=560,t1=640,i=0.7;string-cut:t0=620,t1=700,i=0.5;" +
				"conv-stuck:t0=680,t1=740,i=1;conv-derate:t0=700,t1=780,i=0.3;" +
				"core-fail:t0=750,t1=820,i=0.5;solver:t0=800,t1=860,i=1",
			exercises: func(r *DayResult) bool { return r.Faults.Injected == 6 && r.Faults.SolverFaults > 0 },
			result:    "b616c9a9d067b04f05d4a211c014030e8ee8f92ac99fcf99f277246cdf13933b",
			jsnl:      "dfebb7f8f8c1f883a63f4b026134c570efbd5880511d1a88e68eac9d65a88dc1"},
		{name: "Opt/sensor-stuck", run: goldenMPPT("MPPT&Opt"),
			faults:    "sensor-stuck:t0=600,t1=720,i=1",
			exercises: func(r *DayResult) bool { return r.Faults.WatchdogTrips > 0 },
			result:    "24f2c7c8a3ad0520421a47a570ec07c91635995a6a687e5531df18e694c7da0a",
			jsnl:      "598aa93a89f6394e3cf35c977e7bfd821b728bda7c977c40c290e4732ae6039e"},
		{name: "Opt/sensor-bias", run: goldenMPPT("MPPT&Opt"),
			faults:    "sensor-bias:t0=600,t1=720,i=0.5",
			exercises: func(r *DayResult) bool { return r.Faults.WatchdogTrips == 1 },
			result:    "0a91aca9adac2605d4ba3d1b44fadec21c2df50f81d7c6f98c3d007f591791bb",
			jsnl:      "928e2a355b8d6ee3998f0bbbcb7919b0280d81c2eed29274844a10e2816b7cd4"},
		{name: "Fixed75/cloud+throttle", run: goldenFixed,
			faults: "cloud:t0=600,t1=700,i=0.8;core-throttle:t0=650,t1=750,i=1",
			result: "19eb3caf6164dd317915064040f5c65dc0a3c9fdb7f210b101d35d6b5f52c241",
			jsnl:   "570f9009f7ae8070d1454f3a56d5368281cfca9ac8ff845ea150c8bd018a2acf"},
		{name: "Battery/cloud", run: goldenBattery,
			faults: "cloud:t0=600,t1=700,i=0.8",
			result: "f092a177b9a5aaa545f78e19873b10e4efc5b1248afca328cf15954895e0eb15",
			jsnl:   "66c2ea23922522d84dd68d3b00bbc48cb64a7c7cefacb4e2568307cda0fa7132"},
		{name: "Opt/thermal+event+dvfs", run: goldenMPPT("MPPT&Opt"),
			tweak: func(c *Config) {
				tc := thermalDefault()
				tc.TMaxC = 70
				c.Thermal = &tc
				c.EventTracking = true
				c.DVFSTransitionUs = 50
			},
			exercises: func(r *DayResult) bool { return r.PeakTempC > 0 },
			result:    "3e56ce12aa809ee9a63a0e5ebb282c9e46776084ac7752ab543361c61f95a262",
			jsnl:      "ced88894472939f1b52e99f396a958bd33739ef54e13bb91aac55c834c026d06"},
	}
}

// runGolden runs a golden row on AZ/Apr, mix M2, with its series kept,
// under the fault spec faults ("" runs clean) at stepMin-minute
// sub-samples, and returns the result and its JSONL event stream.
//
// unit: stepMin=min
func runGolden(t *testing.T, row goldenRow, faults string, stepMin float64) (any, []byte) {
	t.Helper()
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
	cfg.StepMin = stepMin
	cfg.KeepSeries = true
	if faults != "" {
		s, err := fault.ParseSpec(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = s
	}
	if row.tweak != nil {
		row.tweak(&cfg)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg.Observer = sink
	res := row.run(t, cfg)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestEngineGolden pins every runner's output bytes: a refactor of the
// day loops must leave each row's result JSON and event stream
// unchanged. AZ/Apr, mix M2, 2-minute sub-samples, series kept.
func TestEngineGolden(t *testing.T) {
	rows := goldenRows()
	table := sha256.New()
	clean := map[string]bool{}
	for _, row := range rows {
		table.Write([]byte(row.result + row.jsnl))
		if row.faults == "" {
			clean[row.result] = true
		}
	}
	for _, row := range rows {
		// A faulted row that reproduces a clean row's result pins nothing
		// of its fault path.
		if row.faults != "" && clean[row.result] {
			t.Errorf("%s: result hash equals a clean row's", row.name)
		}
	}
	if got := hex.EncodeToString(table.Sum(nil)); engineTables[EngineVersion] != got {
		t.Errorf("hash table digest %s is not pinned for EngineVersion %d: "+
			"re-pinned hashes need a bumped EngineVersion and a new engineTables entry", got, EngineVersion)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res, events := runGolden(t, row, row.faults, 2)
			if dr, ok := res.(*DayResult); ok && row.exercises != nil && !row.exercises(dr) {
				t.Errorf("run misses the path it pins: %+v", dr)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256hex(js); got != row.result {
				t.Errorf("result hash %s, pinned %s", got, row.result)
			}
			if got := sha256hex(events); got != row.jsnl {
				t.Errorf("event stream hash %s, pinned %s", got, row.jsnl)
			}
		})
	}
}

// TestEventCodecMatchesEncodingJSON holds the obs line codec to
// encoding/json on every line of the golden rows' event streams, clean
// and faulted: EventType reads the type json.Unmarshal reads, and
// obs.EventEncoder writes json.Marshal's bytes for the decoded event.
func TestEventCodecMatchesEncodingJSON(t *testing.T) {
	var enc obs.EventEncoder
	for _, row := range goldenRows() {
		_, events := runGolden(t, row, row.faults, 2)
		for n, line := range bytes.Split(bytes.TrimSuffix(events, []byte("\n")), []byte("\n")) {
			var ev obs.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("%s line %d: %v", row.name, n+1, err)
			}
			if typ, ok := obs.EventType(line); !ok || typ != ev.Type {
				t.Errorf("%s line %d: EventType %q, %t; json.Unmarshal read %q", row.name, n+1, typ, ok, ev.Type)
			}
			want, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			got, err := enc.Encode(ev)
			if err != nil || !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("%s line %d: EventEncoder = %s, %v; json.Marshal = %s", row.name, n+1, got, err, want)
			}
		}
	}
}

// TestUnseenScheduleRunsClean is the fault layer's metamorphic check: a
// schedule armed with a window no sample sees must leave every clean
// golden row's run as it is, the same result apart from the fault report
// and the same events. The window opens at minute 1049.99, after the
// last sample at both the golden 2-minute step and an 8-minute one.
func TestUnseenScheduleRunsClean(t *testing.T) {
	const unseen = "cloud:t0=1049.99,t1=1110,i=1"
	for _, row := range goldenRows() {
		if row.faults != "" {
			continue
		}
		for _, step := range []float64{2, 8} {
			t.Run(fmt.Sprintf("%s/step%g", row.name, step), func(t *testing.T) {
				clean, cleanEvents := runGolden(t, row, "", step)
				armed, armedEvents := runGolden(t, row, unseen, step)
				if dr, ok := armed.(*DayResult); ok {
					if dr.Faults != (FaultReport{}) {
						t.Errorf("unseen window reported %+v", dr.Faults)
					}
					dr.Faults = FaultReport{}
				}
				cj, err := json.Marshal(clean)
				if err != nil {
					t.Fatal(err)
				}
				aj, err := json.Marshal(armed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(aj, cj) {
					t.Errorf("armed result differs from the clean run:\narmed %.300s\nclean %.300s", aj, cj)
				}
				if !bytes.Equal(armedEvents, cleanEvents) {
					t.Errorf("armed event stream differs from the clean run's")
				}
			})
		}
	}
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
