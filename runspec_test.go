package solarcore_test

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"solarcore"
	"solarcore/internal/sim"
)

// TestRunSpecValidate table-tests the validation surface of the solard
// wire format.
func TestRunSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    solarcore.RunSpec
		wantErr string
	}{
		{"zero value is the paper default", solarcore.RunSpec{}, ""},
		{"explicit defaults", solarcore.RunSpec{Site: "AZ", Season: "Jul", Mix: "HM2", Policy: solarcore.PolicyOpt, StepMin: 1, Panels: 1}, ""},
		{"fixed baseline", solarcore.RunSpec{FixedW: 75}, ""},
		{"battery baseline", solarcore.RunSpec{BatteryEff: 0.8}, ""},
		{"faulted", solarcore.RunSpec{Faults: "cloud:t0=600,t1=720,i=0.9"}, ""},
		{"unknown site", solarcore.RunSpec{Site: "ZZ"}, "site"},
		{"unknown season", solarcore.RunSpec{Season: "Mud"}, "season"},
		{"unknown mix", solarcore.RunSpec{Mix: "XL9"}, "mix"},
		{"unknown policy", solarcore.RunSpec{Policy: "MPPT&Nope"}, "unknown policy"},
		{"negative day", solarcore.RunSpec{Day: -3}, "day"},
		{"negative panels", solarcore.RunSpec{Panels: -1}, "panels"},
		{"negative fixed", solarcore.RunSpec{FixedW: -5}, "fixed_w"},
		{"battery eff over 1", solarcore.RunSpec{BatteryEff: 1.5}, "battery_eff"},
		{"both baselines", solarcore.RunSpec{FixedW: 50, BatteryEff: 0.5}, "at most one"},
		{"policy plus baseline", solarcore.RunSpec{Policy: solarcore.PolicyOpt, FixedW: 50}, "at most one"},
		{"bad faults", solarcore.RunSpec{Faults: "warp:t0=0"}, "faults"},
		{"NaN fault intensity", solarcore.RunSpec{Faults: "cloud:t0=600,t1=700,i=nan"}, "not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunSpecUnknownPolicyWrapsSentinel pins the errors.Is contract the
// HTTP layer maps to 400.
func TestRunSpecUnknownPolicyWrapsSentinel(t *testing.T) {
	err := solarcore.RunSpec{Policy: "MPPT&Nope"}.Validate()
	if !errors.Is(err, solarcore.ErrUnknownPolicy) {
		t.Fatalf("Validate() = %v, want errors.Is(_, ErrUnknownPolicy)", err)
	}
	if _, err := (solarcore.RunSpec{Policy: "MPPT&Nope"}).Runner(); !errors.Is(err, solarcore.ErrUnknownPolicy) {
		t.Fatalf("Runner() = %v, want errors.Is(_, ErrUnknownPolicy)", err)
	}
}

// TestRunSpecCanonicalIdentity checks the cache-identity algebra: the
// zero spec and the spelled-out default spec are the same simulation,
// while every meaningful field change moves the hash, and the identity
// names the engine version that produces the bytes.
func TestRunSpecCanonicalIdentity(t *testing.T) {
	zero := solarcore.RunSpec{}
	explicit := solarcore.RunSpec{Site: "AZ", Season: "Jul", Mix: "HM2",
		Policy: solarcore.PolicyOpt, StepMin: 1, Panels: 1}
	if zero.Canonical() != explicit.Canonical() {
		t.Errorf("zero and explicit-default specs have different identities:\n%s\n%s",
			zero.Canonical(), explicit.Canonical())
	}
	if zero.Hash() != explicit.Hash() {
		t.Error("zero and explicit-default specs hash differently")
	}
	if len(zero.Hash()) != 64 {
		t.Errorf("Hash() = %q, want 64 hex chars", zero.Hash())
	}
	if want := "|engine=" + strconv.Itoa(sim.EngineVersion); !strings.HasSuffix(zero.Canonical(), want) {
		t.Errorf("Canonical() = %q does not name the engine (%q)", zero.Canonical(), want)
	}
	variants := []solarcore.RunSpec{
		{Site: "CO"}, {Season: "Jan"}, {Mix: "L1"}, {Policy: solarcore.PolicyIC},
		{Day: 7}, {StepMin: 8}, {Panels: 4}, {FixedW: 75}, {BatteryEff: 0.8},
		{Faults: "cloud:t0=600,t1=720,i=0.9"},
	}
	// Spellings of one simulation share one identity; a fault spec that
	// does not parse keeps its own verbatim (Validate rejects it).
	for _, group := range [][]solarcore.RunSpec{
		{{Faults: "cloud:t0=600,t1=660,i=0.8"},
			{Faults: "cloud: t0=600.0, t1=660, intensity=.8"},
			{Faults: " cloud:i=8e-1,t1=6.6e2,t0=600 ;"}},
		{{Faults: "sensor-drop:t0=700,t1=720,i=1,seed=7;core-fail:t0=1,t1=2,i=0"},
			{Faults: "sensor-drop:t0=700,t1=720,i=1.0,seed=7.0; core-fail:t0=1,t1=2,i=0.0"}},
		{{}, {Faults: " ; "}},
	} {
		for _, v := range group[1:] {
			if v.Hash() != group[0].Hash() {
				t.Errorf("spellings of one spec have different identities:\n%s\n%s",
					group[0].Canonical(), v.Canonical())
			}
		}
	}
	bad := solarcore.RunSpec{Faults: "cloud:t0=abc"}
	if c := bad.Canonical(); !strings.Contains(c, "|faults=cloud:t0=abc|") {
		t.Errorf("unparseable faults not kept verbatim: %s", c)
	}
	seen := map[string]string{zero.Hash(): "default"}
	for _, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("spec %+v collides with %s", v, prev)
		}
		seen[h] = v.Canonical()
	}
}

// TestRunSpecJSONRoundTrip checks the wire format is lossless: a spec
// survives marshal/unmarshal with its identity intact, and normalization
// does not alter what a denormalized spec means.
func TestRunSpecJSONRoundTrip(t *testing.T) {
	spec := solarcore.RunSpec{Site: "NC", Season: "Oct", Mix: "ML2", Day: 2,
		StepMin: 4, Panels: 2, Faults: "cloud:t0=600,t1=660,i=0.5"}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back solarcore.RunSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != spec.Hash() {
		t.Errorf("JSON round trip changed the identity:\nbefore %s\nafter  %s",
			spec.Canonical(), back.Canonical())
	}
	if spec.Normalized() != spec.Normalized().Normalized() {
		t.Error("Normalized is not idempotent")
	}
}

// TestRunSpecRunMatchesRunner checks RunSpec.Run is a faithful facade:
// the same spec run twice is deterministic, and equals the result of
// materializing the Runner explicitly.
func TestRunSpecRunMatchesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated day")
	}
	spec := solarcore.RunSpec{StepMin: 8}
	ctx := context.Background()
	a, err := spec.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r, err := spec.Runner(solarcore.WithContext(ctx))
	if err != nil {
		t.Fatalf("Runner: %v", err)
	}
	b, err := r.Run()
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("RunSpec.Run diverges from the explicit Runner:\n%.200s\n%.200s", ja, jb)
	}
	if a.Policy != solarcore.PolicyOpt || a.Mix != "HM2" {
		t.Errorf("default spec ran policy %q mix %q, want %q/HM2", a.Policy, a.Mix, solarcore.PolicyOpt)
	}
}

// TestRunSpecRunHonorsCancellation checks the context plumbs through to
// the engine's cooperative cancellation.
func TestRunSpecRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := solarcore.RunSpec{StepMin: 8}.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with canceled ctx = %v, want context.Canceled", err)
	}
}

// FuzzRunSpec holds any JSON-decoded spec, a wire input (the solard
// request body), to the identity contract: Normalized is idempotent,
// Canonical is the canonical string of the normalization, Validate
// agrees on the spec and its normalization, and a valid spec builds a
// Runner without panicking. Seeds are the engine golden runs and the
// specs scripts/check.sh posts to solard.
func FuzzRunSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"site":"AZ","season":"Apr","mix":"M2","policy":"MPPT&Opt","step_min":2}`,
		`{"site":"AZ","season":"Apr","mix":"M2","policy":"MPPT&IC","step_min":2}`,
		`{"site":"AZ","season":"Apr","mix":"M2","policy":"MPPT&RR","step_min":2}`,
		`{"site":"AZ","season":"Apr","mix":"M2","step_min":2,"fixed_w":75}`,
		`{"site":"AZ","season":"Apr","mix":"M2","step_min":2,"battery_eff":0.92}`,
		`{"site":"AZ","season":"Apr","mix":"M2","step_min":2,"faults":"sensor-drop:t0=600,t1=720,i=1"}`,
		`{"site":"AZ","season":"Apr","mix":"M2","step_min":2,"faults":"sensor-stuck:t0=600,t1=720,i=1"}`,
		`{"site":"AZ","season":"Apr","mix":"M2","step_min":2,"faults":"cloud:t0=560,t1=640,i=0.7;string-cut:t0=620,t1=700,i=0.5;conv-stuck:t0=680,t1=740,i=1;conv-derate:t0=700,t1=780,i=0.3;core-fail:t0=750,t1=820,i=0.5;solver:t0=800,t1=860,i=1"}`,
		`{"site":"AZ","season":"Apr","mix":"M2","step_min":2,"fixed_w":75,"faults":"cloud:t0=600,t1=700,i=0.8;core-throttle:t0=650,t1=750,i=1"}`,
		`{"step_min":8,"day":1}`,
		`{"site":"AZ","season":"Jul","mix":"HM2","step_min":8,"day":9}`,
		`{"faults":"sensor-drop:t0=600,t1=720,i=nan"}`,
		`{"policy":"MPPT&Opt","fixed_w":50,"panels":-1,"day":-3}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var s solarcore.RunSpec
		if json.Unmarshal([]byte(body), &s) != nil {
			return
		}
		n := s.Normalized()
		if nn := n.Normalized(); nn != n {
			t.Fatalf("Normalized is not idempotent: %+v -> %+v", n, nn)
		}
		if c, cn := s.Canonical(), n.Canonical(); c != cn {
			t.Fatalf("Canonical %q differs from its normalization's %q", c, cn)
		}
		err, errN := s.Validate(), n.Validate()
		if (err == nil) != (errN == nil) {
			t.Fatalf("Validate disagrees on %+v (%v) and its normalization (%v)", s, err, errN)
		}
		if err == nil {
			_, _ = s.Runner() // must not panic; engine-level errors may surface
		}
	})
}
