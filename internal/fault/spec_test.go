package fault

import (
	"reflect"
	"strings"
	"testing"

	"solarcore/internal/power"
)

func TestParseSpecRoundTrip(t *testing.T) {
	s, err := ParseSpec("cloud:t0=600,t1=660,i=0.8; sensor-drop: t0=700, t1=720, i=1, seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Injectors) != 2 {
		t.Fatalf("parsed %d injectors, want 2", len(s.Injectors))
	}
	if !s.Armed() {
		t.Fatal("parsed schedule not armed")
	}
	if want := (Injector{Kind: KindCloud, W: Window{600, 660}, I: 0.8}); s.Injectors[0] != want {
		t.Errorf("first injector wrong: %#v", s.Injectors[0])
	}
	if want := (Injector{Kind: KindSensorDrop, W: Window{700, 720}, I: 1, Seed: 7}); s.Injectors[1] != want {
		t.Errorf("second injector wrong: %#v", s.Injectors[1])
	}
	if s.Seed != 7 {
		t.Errorf("schedule seed %d, want first explicit seed 7", s.Seed)
	}
	if got, want := s.String(), "cloud:t0=600,t1=660,i=0.8;sensor-drop:t0=700,t1=720,i=1,seed=7"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseSpecEveryKind(t *testing.T) {
	for _, kind := range Kinds() {
		s, err := ParseSpec(kind + ":t0=600,t1=660,i=0.5")
		if err != nil {
			t.Errorf("kind %s: %v", kind, err)
			continue
		}
		if len(s.Injectors) != 1 || s.Injectors[0].Kind != kind {
			t.Errorf("kind %s parsed to %#v", kind, s.Injectors)
		}
	}
}

func TestParseSpecEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", ";", " ; "} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("spec %q: %v", spec, err)
			continue
		}
		if s.Armed() {
			t.Errorf("spec %q produced an armed schedule", spec)
		}
	}
}

// parseSpecErrorCases are malformed specs with a substring their error
// must carry; wantKinds asks the error to list the known kinds.
var parseSpecErrorCases = []struct {
	spec, wantSub string
	wantKinds     bool
}{
	{"nonsense", "needs kind:fields", true},
	{"warp-core:t0=0,t1=1,i=1", `unknown kind "warp-core"`, true},
	{"cloud:t0=600,t1=660", "are all required", false},
	{"cloud:t0=660,t1=600,i=0.5", "empty", false},
	{"cloud:t0=600,t1=660,i=1.5", "outside [0,1]", false},
	{"cloud:t0=600,t1=660,i=-0.1", "outside [0,1]", false},
	{"cloud:t0=abc,t1=660,i=0.5", `bad t0 value "abc": not a number`, false},
	{"cloud:bogus=1,t0=600,t1=660,i=0.5", `unknown field "bogus"`, false},
	{"cloud:t0,t1=660,i=0.5", "needs key=value", false},
	{"cloud:t0=600,t1=700,i=nan", `bad i value "nan": not finite`, false},
	{"cloud:t0=600,t1=700,i=+Inf", `bad i value "+Inf": not finite`, false},
	{"cloud:t0=NaN,t1=700,i=0.5", `bad t0 value "NaN": not finite`, false},
	{"cloud:t0=-inf,t1=700,i=0.5", `bad t0 value "-inf": not finite`, false},
	{"cloud:t0=600,t1=inf,i=0.5", `bad t1 value "inf": not finite`, false},
	{"sensor-drop:t0=600,t1=700,i=1,seed=nan", `bad seed value "nan": not finite`, false},
	{"sensor-drop:t0=600,t1=700,i=1,seed=1e19", `bad seed value "1e19": outside int64`, false},
	{"sensor-drop:t0=600,t1=700,i=1,seed=-1e19", `bad seed value "-1e19": outside int64`, false},
}

func TestParseSpecErrors(t *testing.T) {
	for _, c := range parseSpecErrorCases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("spec %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("spec %q: error %q misses %q", c.spec, err, c.wantSub)
		}
		if c.wantKinds && !strings.Contains(err.Error(), KindCloud) {
			t.Errorf("spec %q: error %q does not list the known kinds", c.spec, err)
		}
	}
}

func TestKindsCoversFactory(t *testing.T) {
	// Every listed kind must take effect inside its window at full
	// intensity (the Runtime dispatches on it), and the list must be
	// duplicate-free.
	op := power.Operating{VLoad: 12, ILoad: 5, PLoad: 60}
	seen := map[string]bool{}
	for _, k := range Kinds() {
		if seen[k] {
			t.Errorf("duplicate kind %q", k)
		}
		seen[k] = true
		rt := NewSchedule(0, Injector{Kind: k, W: Window{0, 10}, I: 1}).Runtime()
		rt.At(1)
		rt.Sense(power.Operating{VLoad: 1, ILoad: 1, PLoad: 1}) // sensor-stuck freezes this
		rt.At(5)
		stuck, eff := rt.Converter()
		if rt.IrradianceScale() == 1 && rt.GeneratorScale() == 1 && rt.Sense(op) == op &&
			!stuck && eff == 1 && !rt.now.cores && rt.SolverErr() == nil {
			t.Errorf("kind %q has no effect at full intensity", k)
		}
	}
}

// FuzzParseSpec holds the fault grammar, a wire input (RunRequest.faults),
// to two properties: no input panics, and every schedule that parses
// survives String: ParseSpec(s.String()) equals s and String is a fixed
// point.
func FuzzParseSpec(f *testing.F) {
	for _, c := range parseSpecErrorCases {
		f.Add(c.spec)
	}
	f.Add("sensor-drop:t0=600,t1=720,i=1")
	f.Add("sensor-drop:t0=600,t1=720,i=nan")
	f.Add("cloud:t0=600,t1=660,i=0.8; sensor-drop: t0=700, t1=720, i=1, seed=7")
	f.Add("core-fail:t0=-0,t1=1e300,i=0x1p-2,seed=-9.2e18;solver:t0=1,t1=2,i=5e-324")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		str := s.String()
		back, err := ParseSpec(str)
		if err != nil {
			t.Fatalf("String of %q = %q does not parse: %v", spec, str, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip of %q through %q: got %#v, want %#v", spec, str, back, s)
		}
		if again := back.String(); again != str {
			t.Fatalf("String is not a fixed point: %q then %q", str, again)
		}
	})
}
