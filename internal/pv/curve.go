package pv

import (
	"math"

	"solarcore/internal/mathx"
)

// Curve is a generator's I-V characteristic at one instant: what
// Generator.At derives once from an Env, so that every query of that
// instant reuses it. For a Module or an Array it holds one module's
// photocurrent Iph, saturation current I0, thermal voltage Ns·n·kT/q and
// open-circuit voltage, and the array's series and parallel counts;
// ShadedString and TwoDiodeModule have no closed single-diode form and
// keep their own solvers behind the same methods.
//
// A curve also carries an output-current scale (ScaleCurrent, 1 from At)
// and remembers the last load lines ResistiveOperating solved on it, so
// it is a value for one goroutine: copy it, do not share a pointer to it.
type Curve struct {
	iph, i0, vt, voc float64 // one module's Iph (A), I0 (A), Ns·n·kT/q (V), Voc (V)
	rs               float64 // series resistance, unit: Ω
	series, parallel float64 // array interconnection counts

	// own solves the curve at env when the generator has no closed
	// single-diode form; nil for Module and Array.
	own solver
	env Env

	scale float64 // output-current scale, unit: ratio
	memo  loadMemo
}

// solver is the env-taking method set of a generator that solves its own
// characteristic: ShadedString and TwoDiodeModule.
type solver interface {
	Current(env Env, v float64) float64
	OpenCircuitVoltage(env Env) float64
	MPP(env Env) MPP
	ResistiveOperating(env Env, r float64) (v, i float64)
}

// memoSize bounds the load lines a curve remembers. A tracking session
// revisits a handful of recent (k, demand) pairs (the direction probe
// and its reversal, a raise/lower flip-flop), so a short ring of the
// latest solves catches the repeats.
const memoSize = 8

// loadMemo is a fixed ring of solved load lines keyed by the exact bits
// of the load resistance: a hit returns the stored point, which equals
// a fresh solve bit for bit because the solve is a pure function of the
// curve and r.
type loadMemo struct {
	r       [memoSize]uint64 // math.Float64bits of the load resistance
	v, i    [memoSize]float64
	n, next int // filled entries, next slot to overwrite
}

// get returns the point stored for the load resistance bits r.
func (m *loadMemo) get(r uint64) (v, i float64, ok bool) {
	for k := 0; k < m.n; k++ {
		if m.r[k] == r {
			return m.v[k], m.i[k], true
		}
	}
	return 0, 0, false
}

// put stores a solved point, overwriting the oldest once the ring is full.
func (m *loadMemo) put(r uint64, v, i float64) {
	m.r[m.next], m.v[m.next], m.i[m.next] = r, v, i
	m.next = (m.next + 1) % memoSize
	if m.n < memoSize {
		m.n++
	}
}

// ScaleCurrent multiplies the curve's output current by s, holding its
// voltages: the electrical effect of taking a fraction of the parallel
// strings off the bus. It forgets the load lines solved before.
//
// unit: s=ratio
func (c *Curve) ScaleCurrent(s float64) {
	c.scale *= s
	c.memo = loadMemo{}
}

// OpenCircuitVoltage returns Voc, which no current scale moves.
//
// unit: V
func (c *Curve) OpenCircuitVoltage() float64 {
	if c.own != nil {
		return c.own.OpenCircuitVoltage(c.env)
	}
	return c.series * c.voc
}

// Current returns the output current at terminal voltage v, clamped to 0
// at and above Voc (the blocking diode of a direct-coupled system).
//
// unit: v=V, return=A
func (c *Curve) Current(v float64) float64 {
	return c.scale * c.current(v)
}

// ShortCircuitCurrent returns Isc (terminal voltage zero).
//
// unit: A
func (c *Curve) ShortCircuitCurrent() float64 { return c.Current(0) }

// Power returns the output power V·I(V) at terminal voltage v.
//
// unit: v=V, return=W
func (c *Curve) Power(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return c.scale * (v * c.current(v))
}

// MPP returns the maximum power point: voltages hold under the current
// scale, current and power scale.
func (c *Curve) MPP() MPP {
	m := c.mpp()
	return MPP{V: m.V, I: c.scale * m.I, P: c.scale * m.P}
}

// ResistiveOperating returns the terminal voltage and current where the
// curve intersects a resistive load line I = V/R. An open load
// (r = +Inf) sits at (Voc, 0) with Voc exactly OpenCircuitVoltage, and a
// dark curve (Voc = 0) returns (0, 0) for every r, so callers need no
// guards of their own. Scaling the current by s maps the load line onto
// the unscaled curve's line I = V/(R·s), so the solve runs at R·s and
// scales the current back; a fully disconnected curve (s = 0) holds no
// load voltage. A load resistance solved before on this curve returns
// the stored point.
//
// unit: r=Ω, v=V, i=A
func (c *Curve) ResistiveOperating(r float64) (v, i float64) {
	key := math.Float64bits(r)
	if v, i, ok := c.memo.get(key); ok {
		return v, i
	}
	switch {
	case math.IsInf(r, 1):
		v, i = c.resistive(r)
	case c.scale <= 0:
		v, i = 0, 0
	default:
		v, i = c.resistive(r * c.scale)
		i *= c.scale
	}
	c.memo.put(key, v, i)
	return v, i
}

// current is the unscaled output current at terminal voltage v.
//
// unit: v=V, return=A
func (c *Curve) current(v float64) float64 {
	if c.own != nil {
		return c.own.Current(c.env, v)
	}
	return c.parallel * c.moduleCurrent(v/c.series)
}

// mpp is the unscaled maximum power point. The array's is the module's
// scaled up, exact under uniform irradiance.
func (c *Curve) mpp() MPP {
	if c.own != nil {
		return c.own.MPP(c.env)
	}
	m := c.moduleMPP()
	return MPP{V: m.V * c.series, I: m.I * c.parallel, P: m.P * c.series * c.parallel}
}

// resistive is the unscaled load-line solve. A load R at the array
// terminals presents each module with R·Parallel/Series (the string
// divides voltage, the bank divides current).
//
// unit: r=Ω, v=V, i=A
func (c *Curve) resistive(r float64) (v, i float64) {
	if c.own != nil {
		return c.own.ResistiveOperating(c.env, r)
	}
	mv, mi := c.moduleResistive(r * c.parallel / c.series)
	return mv * c.series, mi * c.parallel
}

// moduleCurrent solves one module's implicit single-diode equation
//
//	I = Iph − I0·(exp((V + I·Rs)/(Ns·n·kT/q)) − 1)
//
// at terminal voltage v, clamped to 0 where the module cannot source
// current.
//
// unit: v=V, return=A
func (c *Curve) moduleCurrent(v float64) float64 {
	iph, i0, vt, rs := c.iph, c.i0, c.vt, c.rs
	if iph <= 0 {
		return 0
	}
	if rs == 0 {
		i := iph - i0*math.Expm1(v/vt)
		if i < 0 {
			return 0
		}
		return i
	}
	fdf := func(i float64) (float64, float64) {
		e := math.Expm1((v + i*rs) / vt)
		return iph - i0*e - i, -i0*(e+1)*rs/vt - 1
	}
	i, err := mathx.NewtonBisect(fdf, -iph-1, iph+1, 1e-12)
	if err != nil {
		// f is strictly decreasing; a failed bracket means v is far beyond
		// Voc where the module cannot source current.
		return 0
	}
	if i < 0 {
		return 0
	}
	return i
}

// moduleResistive returns one module's operating point on a resistance
// r in closed form. Substituting V = I·r into the single-diode equation
// gives
//
//	I = A − I0·exp(a·I),  a = (r + Rs)/NsVt,  A = Iph + I0,
//
// whose solution is I = A − W(a·I0·e^{aA})/a, with W the Lambert W
// function (Jain & Kapoor 2004, Sol. Energy Mater. Sol. Cells 81:269).
// W is found in the log domain, w + ln w = L with L = ln(a·I0) + a·A, so
// e^{aA} is never formed, and the current is read as
// I = (ln w − ln(a·I0))/a: near open load I ≪ A, where A − w/a would
// cancel. This is the hot path of the circuit simulation.
//
// unit: r=Ω, v=V, i=A
func (c *Curve) moduleResistive(r float64) (v, i float64) {
	voc := c.voc
	if voc <= 0 || math.IsNaN(r) {
		return 0, 0
	}
	if math.IsInf(r, 1) {
		return voc, 0
	}
	if r <= 0 {
		return 0, c.moduleCurrent(0)
	}
	a := (r + c.rs) / c.vt
	lnAI0 := math.Log(a * c.i0)
	i = (logLambertW(lnAI0+a*(c.iph+c.i0)) - lnAI0) / a
	v = i * r
	return v, v / r
}

// logLambertW returns ln w for the w > 0 with w + ln w = L, that is
// ln W(e^L), by Halley's method on f(w) = w + ln w − L from
// w₀ = L − ln L + ln L/L (the asymptotic series) when L > 1 and from
// e^L/(1 + e^L) (W(x) ≈ x − x² for small x) otherwise. Each iteration
// takes one log; the last one's ln w, moved by the final step, is the
// answer, so no log of the converged w is taken.
func logLambertW(L float64) float64 {
	var w float64
	if L > 1 {
		ll := math.Log(L)
		w = L - ll + ll/L
	} else {
		x := math.Exp(L)
		if x == 0 {
			return L // w < 1e-300 leaves ln w = L − w equal to L
		}
		w = x / (1 + x)
	}
	for k := 0; ; k++ {
		lw := math.Log(w)
		f := w + lw - L
		// Halley: dw = f/(f' − f·f''/(2f')), f' = 1 + 1/w, f'' = −1/w².
		fp := 1 + 1/w
		dw := f / (fp + f/(2*w*w*fp))
		if math.Abs(dw) <= 1e-10*w || k == maxHalley {
			return lw - dw/w // ln(w − dw) to first order, exact to (dw/w)²/2
		}
		w -= dw
	}
}

// maxHalley bounds logLambertW's iterations. The start is within a few
// percent of the root for every L, and Halley's method converges
// cubically, so the bound is never reached on a finite L.
const maxHalley = 16

// moduleMPP returns one module's maximum power point. In current space
// the single-diode curve inverts in closed form, so the power
// P(I) = I·V(I) with V(I) = NsVt·ln((Iph − I + I0)/I0) − I·Rs is
// explicit and strictly concave on [0, Iph]: V is decreasing and
// concave. Its one stationary point is the root of
//
//	dP/dI = NsVt·ln(u/I0) − 2·I·Rs − I·NsVt/u,  u = Iph − I + I0,
//
// which is positive at 0 and negative at Iph, with the analytic slope
// d²P/dI² = −2·(NsVt/u + Rs) − I·NsVt/u². One guarded Newton solve finds
// it; no nested Current solve is needed.
func (c *Curve) moduleMPP() MPP {
	iph, i0, a, rs := c.iph, c.i0, c.vt, c.rs
	if iph <= 0 {
		return MPP{}
	}
	fdf := func(i float64) (float64, float64) {
		u := iph - i + i0
		return a*math.Log(u/i0) - 2*i*rs - i*a/u, -2*(a/u+rs) - i*a/(u*u)
	}
	i, err := mathx.NewtonBisect(fdf, 0, iph, iph*1e-12)
	if err != nil {
		return MPP{}
	}
	v := a*math.Log((iph-i+i0)/i0) - i*rs
	return MPP{V: v, I: i, P: v * i}
}

// IVPoint is one sample of an I-V sweep: terminal voltage, output current,
// and the resulting power.
type IVPoint struct {
	V float64 // terminal voltage, V
	I float64 // output current, A
	P float64 // output power, W
}

// IVCurve samples the generator characteristic at n evenly spaced voltages
// from 0 to Voc inclusive under env. n must be at least 2; smaller values
// are raised to 2. This is the data behind Figures 6 and 7.
func IVCurve(g Generator, env Env, n int) []IVPoint {
	if n < 2 {
		n = 2
	}
	c := g.At(env)
	voc := c.OpenCircuitVoltage()
	pts := make([]IVPoint, n)
	for i := range pts {
		v := voc * float64(i) / float64(n-1)
		cur := c.Current(v)
		pts[i] = IVPoint{V: v, I: cur, P: v * cur}
	}
	return pts
}

// UtilizationAtFixedLoad returns the fraction of the available maximum power
// a fixed resistive load R extracts under env — the quantity behind
// Figure 1, which motivates MPP tracking: a load matched at one irradiance
// loses over half the energy at another.
//
// unit: r=Ω, return=ratio
func UtilizationAtFixedLoad(g Generator, env Env, r float64) float64 {
	c := g.At(env)
	mpp := c.MPP()
	if mpp.P <= 0 || r <= 0 {
		return 0
	}
	v, _ := c.ResistiveOperating(r)
	return c.Power(v) / mpp.P
}

// OperatingVoltageResistive returns the terminal voltage at which the
// generator I-V curve intersects a resistive load line I = V/R.
//
// unit: r=Ω, return=V
func OperatingVoltageResistive(g Generator, env Env, r float64) float64 {
	if r <= 0 {
		return 0
	}
	c := g.At(env)
	v, _ := c.ResistiveOperating(r)
	return v
}
