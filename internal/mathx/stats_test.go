package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// A zero sample is floored, not annihilating.
	if got := GeoMean([]float64{0, 1}); got <= 0 {
		t.Errorf("GeoMean with zero = %v, want > 0", got)
	}
}

func TestGeoMeanLEMean(t *testing.T) {
	// Property: AM-GM inequality on positive samples.
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = 0.001 + float64(r)
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Sum(xs) != 9 {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}
