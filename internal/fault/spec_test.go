package fault

import (
	"strings"
	"testing"
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
	cb, ok := s.Injectors[0].(*CloudBurst)
	if !ok || cb.W != (Window{600, 660}) || cb.I != 0.8 {
		t.Errorf("first injector wrong: %#v", s.Injectors[0])
	}
	sd, ok := s.Injectors[1].(*SensorDropout)
	if !ok || sd.Seed != 7 || sd.I != 1 {
		t.Errorf("second injector wrong: %#v", s.Injectors[1])
	}
	if s.Seed != 7 {
		t.Errorf("schedule seed %d, want first explicit seed 7", s.Seed)
	}
}

func TestParseSpecEveryKind(t *testing.T) {
	for _, kind := range Kinds() {
		s, err := ParseSpec(kind + ":t0=600,t1=660,i=0.5")
		if err != nil {
			t.Errorf("kind %s: %v", kind, err)
			continue
		}
		if len(s.Injectors) != 1 || s.Injectors[0].Kind() != kind {
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

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
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
	for _, c := range cases {
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
	// Every listed kind must build, and the list must be duplicate-free.
	seen := map[string]bool{}
	for _, k := range Kinds() {
		if seen[k] {
			t.Errorf("duplicate kind %q", k)
		}
		seen[k] = true
		if _, err := newInjector(k, Window{0, 1}, 0.5, 0); err != nil {
			t.Errorf("kind %q does not build: %v", k, err)
		}
	}
}
