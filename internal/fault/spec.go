package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kinds lists the injector kinds in a stable order: the kinds ParseSpec
// accepts, for error messages and documentation.
func Kinds() []string {
	return []string{
		KindCloud, KindSensorStuck, KindSensorBias, KindSensorDrop,
		KindConvStuck, KindConvDerate, KindCoreFail, KindCoreThrottle,
		KindStringCut, KindSolver,
	}
}

// ParseSpec parses the compact fault-schedule grammar of the CLI
// front ends:
//
//	spec     := entry (';' entry)*
//	entry    := kind ':' field (',' field)*
//	field    := ('t0'|'t1'|'i'|'seed') '=' number
//
// e.g. "cloud:t0=600,t1=660,i=0.8;sensor-drop:t0=700,t1=720,i=1".
// Every value must be finite. Every entry needs t0 < t1 and an
// intensity i in [0,1]; seed is optional and must fit an int64 (the
// schedule seed is the first entry's seed when given).
// Whitespace around tokens is ignored. An empty spec returns a disarmed
// empty schedule. Errors name the offending token and list the known
// kinds.
func ParseSpec(spec string) (*Schedule, error) {
	s := &Schedule{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q needs kind:fields (known kinds: %s)",
				entry, strings.Join(Kinds(), " "))
		}
		kind = strings.TrimSpace(kind)
		var w Window
		var intensity float64
		var seed int64
		sawT0, sawT1, sawI := false, false, false
		for _, field := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("fault: %s: field %q needs key=value", kind, strings.TrimSpace(field))
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			f, err := strconv.ParseFloat(val, 64)
			why := ""
			switch {
			case err != nil:
				why = "not a number"
			case math.IsNaN(f) || math.IsInf(f, 0):
				why = "not finite"
			case key == "seed" && (f < math.MinInt64 || f >= math.MaxInt64):
				why = "outside int64"
			}
			if why != "" {
				return nil, fmt.Errorf("fault: %s: bad %s value %q: %s", kind, key, val, why)
			}
			switch key {
			case "t0":
				w.T0, sawT0 = f, true
			case "t1":
				w.T1, sawT1 = f, true
			case "i", "intensity":
				intensity, sawI = f, true
			case "seed":
				seed = int64(f)
			default:
				return nil, fmt.Errorf("fault: %s: unknown field %q (want t0, t1, i, seed)", kind, key)
			}
		}
		if !sawT0 || !sawT1 || !sawI {
			return nil, fmt.Errorf("fault: %s: t0, t1 and i are all required", kind)
		}
		if w.Empty() {
			return nil, fmt.Errorf("fault: %s: window [%g,%g) is empty (need t0 < t1)", kind, w.T0, w.T1)
		}
		if intensity < 0 || intensity > 1 {
			return nil, fmt.Errorf("fault: %s: intensity %g outside [0,1]", kind, intensity)
		}
		if !slices.Contains(Kinds(), kind) {
			return nil, fmt.Errorf("fault: unknown kind %q (known kinds: %s)", kind, strings.Join(Kinds(), " "))
		}
		if seed != 0 && s.Seed == 0 {
			s.Seed = seed
		}
		s.Injectors = append(s.Injectors, Injector{Kind: kind, W: w, I: intensity, Seed: seed})
	}
	return s, nil
}
