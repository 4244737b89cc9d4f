package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
}

// TestEngineGolden pins every runner's output bytes: a refactor of the
// day loops must leave each row's result JSON and event stream
// unchanged. AZ/Apr, mix M2, 2-minute sub-samples, series kept.
func TestEngineGolden(t *testing.T) {
	rows := []goldenRow{
		{name: "MPPT&Opt", run: goldenMPPT("MPPT&Opt"),
			result: "18e441376db58a6cf97dcbf8e30f4331d696aa83199c4a703d3642a538782654",
			jsnl:   "19609f69f00077c2a6f070e4312594df7ec892a0bdb0074c87b3190e0de25b41"},
		{name: "MPPT&IC", run: goldenMPPT("MPPT&IC"),
			result: "97af1e5741a028720427138594f1ea91b63c92b843e72564e905789ad4e16042",
			jsnl:   "97505336c95f72af1ab9d806945850c86ebec281dc5f2403ba56c12c5ee9bbeb"},
		{name: "MPPT&RR", run: goldenMPPT("MPPT&RR"),
			result: "8b226d21e080c24b539cba36453adf193a7a98b0f0910049714796d32f1e5a1f",
			jsnl:   "1045bc076116148e34aa37ed39b196b787ac8ee838cad71f6bf2f110fa6f0c0f"},
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
			jsnl:      "710f55fe55987c75210588f7e660ad84fd8072c83df5a2af2f1ed398977b4bea"},
		{name: "Opt/mixed", run: goldenMPPT("MPPT&Opt"),
			faults: "cloud:t0=560,t1=640,i=0.7;string-cut:t0=620,t1=700,i=0.5;" +
				"conv-stuck:t0=680,t1=740,i=1;conv-derate:t0=700,t1=780,i=0.3;" +
				"core-fail:t0=750,t1=820,i=0.5;solver:t0=800,t1=860,i=1",
			exercises: func(r *DayResult) bool { return r.Faults.Injected == 6 && r.Faults.SolverFaults > 0 },
			result:    "7e67c40e732634519a9cb8f29e8fd2b5e2803f72228d7d006d3c6cc51f96bf42",
			jsnl:      "48a63661231022d533a399573cf7d418912b9ccdefa9874d9aaaf6a302538226"},
		{name: "Opt/sensor-stuck", run: goldenMPPT("MPPT&Opt"),
			faults:    "sensor-stuck:t0=600,t1=720,i=1",
			exercises: func(r *DayResult) bool { return r.Faults.WatchdogTrips == 3 },
			result:    "beeae3dde342cadb751d70c2508f1475ab710b93b08ca228522219f5677c14fc",
			jsnl:      "dff54457f3a49210f1cda96cfb428d7829769880836c438039929c0123a5224f"},
		{name: "Opt/sensor-bias", run: goldenMPPT("MPPT&Opt"),
			faults:    "sensor-bias:t0=600,t1=720,i=0.5",
			exercises: func(r *DayResult) bool { return r.Faults.WatchdogTrips == 1 },
			result:    "ac3beced4ed6fffb612773749a864822de15ce0bf89703989b5ed961dca8ab9c",
			jsnl:      "922dd9ba611086a5de9fcc77dcf9502db60b3f7ea8649d3c97f259e4a1d0cbf8"},
		{name: "Fixed75/cloud+throttle", run: goldenFixed,
			faults: "cloud:t0=600,t1=700,i=0.8;core-throttle:t0=650,t1=750,i=1",
			result: "e3d3504a4480e3bf1d19f553559e4fc9fbd45815d6c5fadad42d70592f022f5e",
			jsnl:   "d12ac5b50b672297b1ac4cd50cc4e50066398843d71c3c899e5303b491bf4341"},
		{name: "Battery/cloud", run: goldenBattery,
			faults: "cloud:t0=600,t1=700,i=0.8",
			result: "f092a177b9a5aaa545f78e19873b10e4efc5b1248afca328cf15954895e0eb15",
			jsnl:   "b5b7185f8979fbf34ba6101f30dfa7c43bd6f179724e45daee13fc01184a794b"},
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
			jsnl:      "aac520cbd01f5ffc86d8d8eeece6ee5704a40db742b34ec038beb31d462f6fc6"},
	}
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
			cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
			cfg.KeepSeries = true
			if row.faults != "" {
				s, err := fault.ParseSpec(row.faults)
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
			if got := sha256hex(buf.Bytes()); got != row.jsnl {
				t.Errorf("event stream hash %s, pinned %s", got, row.jsnl)
			}
		})
	}
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
