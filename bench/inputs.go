package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"solarcore"
	"solarcore/internal/atmos"
	"solarcore/internal/exp"
)

// Every input a workload sends is drawn here from the run's -seed and
// nothing else: element i of a sequence depends only on the seed and i,
// however many clients read the sequence and in whatever order. The
// systems under test receive specs, sweeps and lab options, never the
// name of the workload that generated them.

// maxDay bounds generated weather day indices. The range is wide enough
// that two independently drawn specs practically never share a solar
// day, so only the workloads that share days on purpose reuse them.
const maxDay = 1_000_000

// Sizes of the generated inputs.
const (
	sweepCells = 24  // cells per sweep: one day × 8 mixes × 3 MPPT policies
	sweepMixes = 8   // mixes per sweep
	hotSet     = 256 // hit-run working set; fits the default 1024-entry LRU
	zipfS      = 1.1 // hit-run key popularity exponent
	storedSet  = 128 // replay-watch working set, 8× the node's memory cache
	checkCount = 16  // responses per run checked byte for byte
	checkSpan  = 64  // checked responses are drawn from the first checkSpan ops
)

// fixedW is the Fixed-Power baseline budget (W) mixed into miss-run.
const fixedW = 75

// mpptPolicies are the Table 6 tracking policies.
var mpptPolicies = []string{solarcore.PolicyIC, solarcore.PolicyRR, solarcore.PolicyOpt}

// Independent random streams of one seed, one per purpose, so that
// adding draws to one sequence never shifts another.
const (
	streamMiss uint64 = iota + 1
	streamSweep
	streamHot
	streamZipf
	streamStored
	streamRunKeys
	streamStreamKeys
	streamDays
	streamChecks
	streamTrace
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// seq is a lazily extended seeded sequence, safe for concurrent readers.
type seq[T any] struct {
	mu   sync.Mutex
	draw func() (T, bool) // false rejects the draw (a duplicate)
	buf  []T
}

func newSeq[T any](draw func() (T, bool)) *seq[T] { return &seq[T]{draw: draw} }

// at returns element i, drawing the sequence up to it on first use.
func (s *seq[T]) at(i int) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) <= i {
		if v, ok := s.draw(); ok {
			s.buf = append(s.buf, v)
		}
	}
	return s.buf[i]
}

// first returns elements [0, n).
func (s *seq[T]) first(n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = s.at(i)
	}
	return out
}

// randomSpec draws one step-1 spec over site × season × mix × policy,
// where the policy is one of the three MPPT policies or the fixed 75 W
// baseline.
func randomSpec(r *rand.Rand) solarcore.RunSpec {
	s := solarcore.RunSpec{
		Site:    atmos.Sites[r.IntN(len(atmos.Sites))].Code,
		Season:  atmos.Seasons[r.IntN(len(atmos.Seasons))].String(),
		Mix:     solarcore.Mixes()[r.IntN(len(solarcore.Mixes()))].Name,
		Day:     r.IntN(maxDay),
		StepMin: 1,
	}
	if p := r.IntN(len(mpptPolicies) + 1); p < len(mpptPolicies) {
		s.Policy = mpptPolicies[p]
	} else {
		s.FixedW = fixedW
	}
	return s
}

// distinctSpecs is a sequence of random specs with no two alike.
func distinctSpecs(seed int64, stream uint64) *seq[solarcore.RunSpec] {
	r := newRand(seed, stream)
	seen := map[string]bool{}
	return newSeq(func() (solarcore.RunSpec, bool) {
		s := randomSpec(r)
		h := s.Hash()
		if seen[h] {
			return s, false
		}
		seen[h] = true
		return s, true
	})
}

// sweeps is a sequence of 24-cell sweeps. Each takes one fresh
// (site, season, day) and crosses 8 of the 10 mixes with the three MPPT
// policies, so its cells share one solar day.
func sweeps(seed int64) *seq[[]solarcore.RunSpec] {
	r := newRand(seed, streamSweep)
	seen := map[string]bool{}
	return newSeq(func() ([]solarcore.RunSpec, bool) {
		site := atmos.Sites[r.IntN(len(atmos.Sites))].Code
		season := atmos.Seasons[r.IntN(len(atmos.Seasons))].String()
		day := r.IntN(maxDay)
		perm := r.Perm(len(solarcore.Mixes()))
		key := fmt.Sprintf("%s|%s|%d", site, season, day)
		if seen[key] {
			return nil, false
		}
		seen[key] = true
		cells := make([]solarcore.RunSpec, 0, sweepCells)
		for _, m := range perm[:sweepMixes] {
			for _, p := range mpptPolicies {
				cells = append(cells, solarcore.RunSpec{
					Site: site, Season: season, Mix: solarcore.Mixes()[m].Name,
					Policy: p, Day: day, StepMin: 1,
				})
			}
		}
		return cells, true
	})
}

// indices is a sequence of uniform draws from [0, n).
func indices(seed int64, stream uint64, n int) *seq[int] {
	r := newRand(seed, stream)
	return newSeq(func() (int, bool) { return r.IntN(n), true })
}

// zipfRanks is a sequence of hot-set ranks with Zipf(s) popularity:
// rank 0 is the most requested key.
func zipfRanks(seed int64, n int) *seq[int] {
	z := rand.NewZipf(newRand(seed, streamZipf), zipfS, 1, uint64(n-1))
	return newSeq(func() (int, bool) { return int(z.Uint64()), true })
}

// checkSet picks the checkCount operation indices, among the first
// checkSpan, whose responses are verified byte for byte.
func checkSet(seed int64) map[int]bool {
	out := make(map[int]bool, checkCount)
	for _, i := range newRand(seed, streamChecks).Perm(checkSpan)[:checkCount] {
		out[i] = true
	}
	return out
}

// labCells enumerates the paper grid of one lab day as specs: every
// site × season × mix under the three MPPT policies, the fixed-power
// budgets and the two battery brackets.
func labCells(day int) []solarcore.RunSpec {
	var out []solarcore.RunSpec
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			for _, mix := range solarcore.Mixes() {
				base := solarcore.RunSpec{Site: site.Code, Season: season.String(), Mix: mix.Name, Day: day, StepMin: 1}
				for _, p := range exp.MPPTPolicies {
					s := base
					s.Policy = p
					out = append(out, s)
				}
				for _, w := range exp.FixedBudgets {
					s := base
					s.FixedW = w
					out = append(out, s)
				}
				for _, e := range exp.BatteryEffs {
					s := base
					s.BatteryEff = e
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// pick draws n distinct elements of specs in a seeded order.
func pick(seed int64, specs []solarcore.RunSpec, n int) []solarcore.RunSpec {
	if n > len(specs) {
		n = len(specs)
	}
	out := make([]solarcore.RunSpec, 0, n)
	for _, i := range newRand(seed, streamTrace).Perm(len(specs))[:n] {
		out = append(out, specs[i])
	}
	return out
}

// dayReuse is the number of cells per distinct (site, season, day,
// panels) in specs: how often a day cache could reuse one built day.
func dayReuse(specs []solarcore.RunSpec) float64 {
	days := map[string]bool{}
	for _, s := range specs {
		n := s.Normalized()
		days[fmt.Sprintf("%s|%s|%d|%d", n.Site, n.Season, n.Day, n.Panels)] = true
	}
	if len(days) == 0 {
		return 0
	}
	return float64(len(specs)) / float64(len(days))
}
