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
