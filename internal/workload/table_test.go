package workload

import (
	"math"
	"sync"
	"testing"

	"solarcore/internal/atmos"
)

// formula evaluates in's phase model without its table: an Instance
// literal built without NewInstance has none.
func formula(in Instance, minute float64) (ipc, ceffNF float64) {
	return Instance{Bench: in.Bench, OffsetMin: in.OffsetMin}.Demand(minute)
}

// sameBits reports whether two demand samples are bit for bit equal.
func sameBits(ipc, ceff, wantIPC, wantCeff float64) bool {
	return math.Float64bits(ipc) == math.Float64bits(wantIPC) &&
		math.Float64bits(ceff) == math.Float64bits(wantCeff)
}

// TestDemandTableIsExact checks every instance of the ten Table 5 mixes
// against the phase model at every whole minute of the day window: the
// table holds exactly the formula's value, so reading it changes no
// result byte.
func TestDemandTableIsExact(t *testing.T) {
	for _, m := range Mixes {
		ins, err := m.Instances()
		if err != nil {
			t.Fatal(err)
		}
		for core, in := range ins {
			if in.tab == nil {
				t.Fatalf("%s core %d: NewInstance attached no table", m.Name, core)
			}
			for minute := atmos.DayStartMinute; minute <= atmos.DayEndMinute; minute++ {
				ipc, ceff := in.Demand(float64(minute))
				wantIPC, wantCeff := formula(in, float64(minute))
				if !sameBits(ipc, ceff, wantIPC, wantCeff) {
					t.Fatalf("%s core %d minute %d: table (%v, %v), formula (%v, %v)",
						m.Name, core, minute, ipc, ceff, wantIPC, wantCeff)
				}
			}
		}
	}
}

// TestDemandOffTableUsesFormula checks that a minute which is not bit
// for bit a whole minute of the window bypasses the table.
func TestDemandOffTableUsesFormula(t *testing.T) {
	in := NewInstance(mustBench(t, "art"), 3)
	drift := float64(atmos.DayStartMinute)
	for range 10 {
		drift += 0.1
	}
	if math.Float64bits(drift) == math.Float64bits(atmos.DayStartMinute+1) {
		t.Fatalf("ten steps of 0.1 landed exactly on %v; pick another drift", drift)
	}
	for _, minute := range []float64{
		atmos.DayStartMinute - 1, atmos.DayEndMinute + 1, atmos.DayStartMinute + 0.5,
		drift, math.Nextafter(atmos.DayStartMinute+1, math.Inf(1)), -0.5, math.NaN(), math.Inf(1),
	} {
		ipc, ceff := in.Demand(minute)
		wantIPC, wantCeff := formula(in, minute)
		if !sameBits(ipc, ceff, wantIPC, wantCeff) {
			t.Errorf("minute %v: got (%v, %v), formula (%v, %v)", minute, ipc, ceff, wantIPC, wantCeff)
		}
	}
	// The drifted minute must not read its neighbour's row.
	ipc, ceff := in.Demand(drift)
	rowIPC, rowCeff := in.Demand(float64(atmos.DayStartMinute + 1))
	if sameBits(ipc, ceff, rowIPC, rowCeff) {
		t.Errorf("minute %v read the table row of minute %d", drift, atmos.DayStartMinute+1)
	}
}

// TestDemandTablesShared checks that the memo gives every instance of
// one (benchmark, slot) one table, also to concurrent first callers, and
// that its bound holds every pair the mixes can name.
func TestDemandTablesShared(t *testing.T) {
	// A benchmark no other test names, so the first call fills its table.
	b := mustBench(t, "gzip")
	b.Name = "gzip-shared"
	const callers = 8
	got := make([]*demandTable, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = NewInstance(b, 5).tab
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got table %p, caller 0 got %p", i, got[i], got[0])
		}
	}
	if NewInstance(b, 4).tab == got[0] {
		t.Error("two core slots share one table")
	}

	pairs := map[tableKey]bool{}
	for _, m := range Mixes {
		ins, err := m.Instances()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			pairs[tableKey{in.Bench, in.OffsetMin}] = true
		}
	}
	if len(pairs) != 54 {
		t.Errorf("Table 5 uses %d (benchmark, slot) pairs, want 54", len(pairs))
	}
	if n := len(All) * 8; tableCacheCap < n {
		t.Errorf("tableCacheCap %d holds fewer than the %d pairs of an 8-core chip", tableCacheCap, n)
	}
}
