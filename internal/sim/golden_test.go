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
// earlier versions stay as they are.
var engineTables = map[int]string{
	1: "adc8143fd1203734dffe5e0a8395eea919451445410b3fb732556220e4f94da0",
}

// TestEngineGolden pins every runner's output bytes: a refactor of the
// day loops must leave each row's result JSON and event stream
// unchanged. AZ/Apr, mix M2, 2-minute sub-samples, series kept.
func TestEngineGolden(t *testing.T) {
	rows := []goldenRow{
		{name: "MPPT&Opt", run: goldenMPPT("MPPT&Opt"),
			result: "7464557ff3f78f184a4382f58024dab416d9fad81e355bbf4d6bb695ff215bc0",
			jsnl:   "ac85d6c7ede145419f0ad45ed199c534204b1c8812038282f7cdb225b41a0c52"},
		{name: "MPPT&IC", run: goldenMPPT("MPPT&IC"),
			result: "31afbf1398cef5f4ed7b32c55a303177e5d9f7ed547c929eb1f74da7827f6e03",
			jsnl:   "45f990bb00ae083b664fb72f30f3db3cb8eb35b5ce56fd42fac4bb6ba33e9060"},
		{name: "MPPT&RR", run: goldenMPPT("MPPT&RR"),
			result: "39027b1d4aee06dd64c0c2c57e6988e26ce367709b5cc6a12a345f4d4504b87a",
			jsnl:   "b824d6c1a29783ab776906498f77e25f0efae53cc6ab7f96febae407d08eda37"},
		{name: "Fixed75", run: goldenFixed,
			result: "cc80d7fea0b3a200eb28b1d56f73ccb5ece393172afb736dbb089f80ba596fce",
			jsnl:   "5e8759c1c40d2abf56f1b4dd4747932b9570b612b9e09e8861627d4615414e17"},
		{name: "Battery", run: goldenBattery,
			result: "0292e4124d0afa63c03c98e4469c54f99c8833a1f242f5e2b992054b6d9cab22",
			jsnl:   "0dcb58221d8e4a32319252e836c7c6230f620787ce5f3dd95e14f8551c7c7867"},
		{name: "Bank150", run: goldenBank,
			result: "7cb0ec4f2f8384aa359d778e1c29a809594afcbf63be686f9586a640b3767b41",
			jsnl:   "03b75cc672fd8c88c420246d51807d6836e1caa5fe648b8743c1c9461f288609"},
		{name: "Opt/sensor-drop", run: goldenMPPT("MPPT&Opt"),
			faults:    "sensor-drop:t0=600,t1=720,i=1",
			exercises: func(r *DayResult) bool { return r.Faults.FallbackPeriods > 0 },
			result:    "3b67837a068e48ca5e49d191d53235332b886dd36e56b03596fad1d8a2c6058e",
			jsnl:      "536a6ba20ddb5748a509410c52cb184cd6dd478f4c3e47e0607cd3d5528f37ac"},
		{name: "Opt/mixed", run: goldenMPPT("MPPT&Opt"),
			faults: "cloud:t0=560,t1=640,i=0.7;string-cut:t0=620,t1=700,i=0.5;" +
				"conv-stuck:t0=680,t1=740,i=1;conv-derate:t0=700,t1=780,i=0.3;" +
				"core-fail:t0=750,t1=820,i=0.5;solver:t0=800,t1=860,i=1",
			exercises: func(r *DayResult) bool { return r.Faults.Injected == 6 && r.Faults.SolverFaults > 0 },
			result:    "fe5d8160afb1ac809a05a547a5c021e5c0481d601f4cbb3a1ae4aa98504a6fbf",
			jsnl:      "30cc78b689e8bcf6ae133f12974765ac41c3594579721f9ac2adf94ab8d3e3c5"},
		{name: "Fixed75/cloud+throttle", run: goldenFixed,
			faults: "cloud:t0=600,t1=700,i=0.8;core-throttle:t0=650,t1=750,i=1",
			result: "39809a08b556fb1f2e9f959a369f7794f37d0a4dafd50f39844de93897155b77",
			jsnl:   "d6cf8e7cfef42e381f3b30acb623f4a5ee9e01848223f572f6ef0e8c15a862ab"},
		{name: "Battery/cloud", run: goldenBattery,
			faults: "cloud:t0=600,t1=700,i=0.8",
			result: "7f4e0ea5f8ce4b44abaebaa36a727a94f8ee72c3ece7e385607ae107eb00a284",
			jsnl:   "03fe1389f9f574e30d33a88813cfadcfd3eab4f58fd717b190959bbacee5f9ee"},
		{name: "Opt/thermal+event+dvfs", run: goldenMPPT("MPPT&Opt"),
			tweak: func(c *Config) {
				tc := thermalDefault()
				tc.TMaxC = 70
				c.Thermal = &tc
				c.EventTracking = true
				c.DVFSTransitionUs = 50
			},
			exercises: func(r *DayResult) bool { return r.PeakTempC > 0 },
			result:    "852b154fab0b4f4b98a218388525d810f9f0df14f4972ef8d0f69776ac4f3fee",
			jsnl:      "f39ec0ec4899ede15b27ced42b56f94fa217993f1b5d09199bcd3bc5411136ec"},
	}
	table := sha256.New()
	for _, row := range rows {
		table.Write([]byte(row.result + row.jsnl))
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
