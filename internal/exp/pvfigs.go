package exp

import (
	"fmt"
	"strings"

	"solarcore/internal/pv"
)

// Figure1Result is the motivation experiment: the fraction of available
// solar energy a fixed resistive load extracts as irradiance departs from
// the level it was matched at (Figure 1).
type Figure1Result struct {
	MatchedAtG float64
	Points     []Figure1Point
}

// Figure1Point is one irradiance sample of Figure 1.
type Figure1Point struct {
	Irradiance  float64
	Utilization float64
}

// Figure1 matches a resistive load to the module MPP at 1000 W/m² and
// reports energy utilization at the paper's four irradiance levels.
func Figure1() Figure1Result {
	m := pv.NewModule(pv.BP3180N())
	stc := m.At(pv.STC)
	mpp := stc.MPP()
	r := mpp.V / mpp.I
	res := Figure1Result{MatchedAtG: pv.GRef}
	for _, g := range []float64{1000, 800, 600, 400} {
		env := pv.Env{Irradiance: g, CellTemp: pv.TRef}
		res.Points = append(res.Points, Figure1Point{
			Irradiance:  g,
			Utilization: pv.UtilizationAtFixedLoad(m, env, r),
		})
	}
	return res
}

// Render draws the Figure 1 bar data.
func (r Figure1Result) Render() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{fmt.Sprintf("%.0f", p.Irradiance), pct(p.Utilization)}
	}
	return renderTable(
		fmt.Sprintf("Figure 1: fixed-load energy utilization (load matched at %.0f W/m²)", r.MatchedAtG),
		[]string{"Irradiance (W/m²)", "Energy utilization"}, rows)
}

// CurvePoint is one sample of an I-V / P-V sweep.
type CurvePoint struct {
	V float64
	I float64
	P float64
}

// CurveFamily is a set of I-V / P-V sweeps labelled by the swept parameter,
// the data behind Figures 6 and 7.
type CurveFamily struct {
	Title  string
	Labels []string
	Curves [][]CurvePoint
	MPPs   []pv.MPP
}

// Figure6 sweeps the module characteristic across irradiance levels
// G ∈ {400, 600, 800, 1000} W/m² at 25 °C (Figure 6).
func Figure6(samples int) CurveFamily {
	m := pv.NewModule(pv.BP3180N())
	fam := CurveFamily{Title: "Figure 6: I-V and P-V curves vs irradiance (T=25°C)"}
	for _, g := range []float64{400, 600, 800, 1000} {
		env := pv.Env{Irradiance: g, CellTemp: 25}
		fam.Labels = append(fam.Labels, fmt.Sprintf("G=%.0f", g))
		fam.Curves = append(fam.Curves, sweep(m, env, samples))
		cv := m.At(env)
		fam.MPPs = append(fam.MPPs, cv.MPP())
	}
	return fam
}

// Figure7 sweeps the module characteristic across cell temperatures
// T ∈ {0, 25, 50, 75} °C at 1000 W/m² (Figure 7).
func Figure7(samples int) CurveFamily {
	m := pv.NewModule(pv.BP3180N())
	fam := CurveFamily{Title: "Figure 7: I-V and P-V curves vs temperature (G=1000 W/m²)"}
	for _, tc := range []float64{0, 25, 50, 75} {
		env := pv.Env{Irradiance: 1000, CellTemp: tc}
		fam.Labels = append(fam.Labels, fmt.Sprintf("T=%.0f", tc))
		fam.Curves = append(fam.Curves, sweep(m, env, samples))
		cv := m.At(env)
		fam.MPPs = append(fam.MPPs, cv.MPP())
	}
	return fam
}

func sweep(g pv.Generator, env pv.Env, samples int) []CurvePoint {
	pts := pv.IVCurve(g, env, samples)
	out := make([]CurvePoint, len(pts))
	for i, p := range pts {
		out[i] = CurvePoint{V: p.V, I: p.I, P: p.P}
	}
	return out
}

// Render summarizes each curve of the family by its Voc, Isc and MPP, plus
// a power sparkline over voltage.
func (f CurveFamily) Render() string {
	var maxP float64
	for _, mpp := range f.MPPs {
		if mpp.P > maxP {
			maxP = mpp.P
		}
	}
	rows := make([][]string, len(f.Labels))
	for i := range f.Labels {
		curve := f.Curves[i]
		voc := curve[len(curve)-1].V
		isc := curve[0].I
		powers := make([]float64, 0, 40)
		for j := 0; j < len(curve); j += max(1, len(curve)/40) {
			powers = append(powers, curve[j].P)
		}
		rows[i] = []string{
			f.Labels[i], f2(voc), f2(isc),
			f2(f.MPPs[i].V), f2(f.MPPs[i].I), f1(f.MPPs[i].P),
			sparkline(powers, maxP),
		}
	}
	return renderTable(f.Title,
		[]string{"curve", "Voc(V)", "Isc(A)", "Vmpp(V)", "Impp(A)", "Pmax(W)", "P-V shape"}, rows)
}

// CSV emits the family as voltage,current,power rows per curve label.
func (f CurveFamily) CSV() string {
	var b strings.Builder
	b.WriteString("label,voltage_v,current_a,power_w\n")
	for i, label := range f.Labels {
		for _, p := range f.Curves[i] {
			fmt.Fprintf(&b, "%s,%.4f,%.4f,%.4f\n", label, p.V, p.I, p.P)
		}
	}
	return b.String()
}
