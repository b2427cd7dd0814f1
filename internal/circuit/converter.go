package circuit

import "math"

// Converter devices: the ideal switch, its PWM control waveform, and the
// piecewise-linear (forward-drop) diode mode. Together they form the
// switch-mode power converter substrate (Pels et al., "Efficient simulation
// of DC-DC switch-mode power converters by multirate partial differential
// equations"): the switching period is the fast t1 scale and the duty ratio
// is the slow t2-varying control, exactly mirroring how vctl drives the VCO.

// Waveform2 is a bivariate source waveform over the fast (t1) and slow (t2)
// time scales. The consistency contract is w2(t, t) == the univariate
// waveform at t, so transient (diagonal) and MPDE (bivariate) solves see
// the same physical source.
type Waveform2 func(t1, t2 float64) float64

// Input2Device is implemented by devices whose input waveforms separate
// into a fast and a slow argument. The MPDE envelope path evaluates
// Inputs2(t1, t2, u) per collocation point; devices that do not implement
// it are treated as slow-only (their Inputs(t2, u) is used unchanged).
type Input2Device interface {
	Inputs2(t1, t2 float64, u []float64)
}

// DefaultPWMEdge is the default switching-edge width as a fraction of the
// switching period. Finite edges keep the waveform's harmonic content
// boundable: an ideal step never converges in a global trig basis, while a
// 2% trapezoidal edge rolls the spectrum off past harmonic ~1/(2·edge).
const DefaultPWMEdge = 0.02

// PWMControl is a pulse-width-modulated control waveform: a trapezoidal
// 0/1 pulse train at fixed switching frequency FSw whose duty ratio is a
// slow waveform Duty(t2). The switching phase rides the fast scale t1 and
// the duty ratio the slow scale t2 — the converter analogue of the VCO's
// vctl. Duty is clamped to [Edge, 1−Edge] so the on-interval always
// contains both transition ramps (duty→0 and duty→1 degrade gracefully to
// the minimum/maximum realizable pulse instead of folding the edges).
type PWMControl struct {
	Duty Waveform // slow duty-ratio control, evaluated at t2
	FSw  float64  // switching frequency, Hz (fast t1 scale)
	Edge float64  // edge width as a fraction of the switching period
}

// NewPWMControl builds a PWM control; edge <= 0 selects DefaultPWMEdge.
func NewPWMControl(duty Waveform, fsw, edge float64) PWMControl {
	if edge <= 0 {
		edge = DefaultPWMEdge
	}
	return PWMControl{Duty: duty, FSw: fsw, Edge: edge}
}

// Eval2 evaluates the control at fast time t1 and slow time t2: the
// switching phase is t1·FSw mod 1, the duty ratio Duty(t2).
func (p PWMControl) Eval2(t1, t2 float64) float64 {
	d := p.Duty(t2)
	lo, hi := p.Edge, 1-p.Edge
	if d < lo {
		d = lo
	} else if d > hi {
		d = hi
	}
	ph := t1 * p.FSw
	ph -= math.Floor(ph)
	switch {
	case ph < p.Edge:
		return smoothstep(ph / p.Edge)
	case ph < d:
		return 1
	case ph < d+p.Edge:
		return smoothstep(1 - (ph-d)/p.Edge)
	default:
		return 0
	}
}

// smoothstep is the C¹ ramp 3u²−2u³ used for the PWM edges. Linear ramps
// leave slope kinks at the four edge corners, and sampling a kinked
// waveform on the N1 collocation points biases its effective duty ratio by
// O(1/N1²) with a corner-position-dependent coefficient — an output-mean
// offset that wanders non-monotonically with N1. C¹ edges push the
// sampling bias two orders down.
func smoothstep(u float64) float64 { return u * u * (3 - 2*u) }

// Waveform returns the univariate (transient) view, the t1 = t2 diagonal.
func (p PWMControl) Waveform() Waveform {
	return func(t float64) float64 { return p.Eval2(t, t) }
}

// Waveform2 returns the bivariate (MPDE) view.
func (p PWMControl) Waveform2() Waveform2 { return p.Eval2 }

// Switch is an ideal switch: a two-state resistor whose conductance is set
// by a control input s ∈ [0, 1], g(s) = Goff + s·(Gon − Goff). Because the
// control is an input (not a state), the switch is a time-varying *linear*
// conductance: StampJF is exact and state-independent, so Newton sees no
// new nonlinearity from switching.
type Switch struct {
	twoNode
	Gon, Goff float64
	Ctl       Waveform
	Ctl2      Waveform2 // optional bivariate control; nil = slow-only Ctl
	uIdx      int
}

// NewSwitch creates a switch with the given on/off conductances driven by
// a univariate control waveform (values clamped to [0,1]).
func NewSwitch(name, n1, n2 string, gon, goff float64, ctl Waveform) *Switch {
	return &Switch{twoNode: twoNode{name, n1, n2, 0, 0}, Gon: gon, Goff: goff, Ctl: ctl}
}

// NumExtra implements Device.
func (d *Switch) NumExtra() int { return 0 }

// NumInputs implements Device.
func (d *Switch) NumInputs() int { return 1 }

// Bind implements Device.
func (d *Switch) Bind(nodes []int, extraBase, inputBase int) {
	d.ia, d.ib = nodes[0], nodes[1]
	d.uIdx = inputBase
}

func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func (d *Switch) g(u []float64) float64 {
	return d.Goff + clamp01(u[d.uIdx])*(d.Gon-d.Goff)
}

// StampQ implements Device.
func (d *Switch) StampQ(x, q []float64) {}

// StampF implements Device.
func (d *Switch) StampF(x, u, f []float64) {
	i := d.g(u) * (vAt(x, d.ia) - vAt(x, d.ib))
	accum(f, d.ia, i)
	accum(f, d.ib, -i)
}

// StampJQ implements Device.
func (d *Switch) StampJQ(x []float64, add Stamper) {}

// StampJF implements Device.
func (d *Switch) StampJF(x, u []float64, add Stamper) {
	g := d.g(u)
	add(d.ia, d.ia, g)
	add(d.ia, d.ib, -g)
	add(d.ib, d.ia, -g)
	add(d.ib, d.ib, g)
}

// Inputs implements Device.
func (d *Switch) Inputs(t float64, u []float64) { u[d.uIdx] = clamp01(d.Ctl(t)) }

// Inputs2 implements Input2Device.
func (d *Switch) Inputs2(t1, t2 float64, u []float64) {
	if d.Ctl2 != nil {
		u[d.uIdx] = clamp01(d.Ctl2(t1, t2))
		return
	}
	u[d.uIdx] = clamp01(d.Ctl(t2))
}

// PWLDiode is the forward-drop (smoothed piecewise-linear) diode mode: off
// below the forward voltage Vf with leakage conductance Goff, on above it
// with conductance Gon added, the two linear regions joined by a softplus,
//
//	i(v) = Goff·v + Gon·δ·ln(1 + exp((v − Vf)/δ)),    δ = pwlDiodeSmooth,
//
// so the current is C^∞ and convex in v. An ideal corner (or a narrow
// local blend) makes the collocation Newton thrash: with N1 points on the
// switching waveform, several sit near the corner at every envelope step
// and the active-set flips dominate the iteration. The softplus spreads
// the conductance transition over a few tenths of a volt — the standard
// smoothed-ideal-diode idealization for power-converter simulation, which
// the exponential Diode's Vt-scale stiffness is precisely what this mode
// avoids. The smoothing is part of the device model, so transient and
// MPDE solves see identical physics.
type PWLDiode struct {
	twoNode
	Vf, Gon, Goff float64
}

// pwlDiodeSmooth is the softplus temperature (V): conductance goes from
// 12% to 88% of Gon over ±2δ around Vf. The off-state residual current at
// v = 0 is Gon·δ·exp(−Vf/δ) — for Vf a few tenths of a volt it is
// comparable to the Goff leakage.
const pwlDiodeSmooth = 0.025

// pwlExpMax clamps the softplus exponent (linear continuation beyond).
const pwlExpMax = 40.0

// currentAndG evaluates the smoothed current and conductance at forward
// voltage v.
func (d *PWLDiode) currentAndG(v float64) (i, g float64) {
	i, g = d.Goff*v, d.Goff
	a := (v - d.Vf) / pwlDiodeSmooth
	switch {
	case a > pwlExpMax:
		i += d.Gon * (v - d.Vf)
		g += d.Gon
	case a < -pwlExpMax:
	default:
		e := math.Exp(a)
		i += d.Gon * pwlDiodeSmooth * math.Log1p(e)
		g += d.Gon * e / (1 + e)
	}
	return i, g
}

// NewPWLDiode creates a forward-drop diode.
func NewPWLDiode(name, n1, n2 string, vf, gon, goff float64) *PWLDiode {
	return &PWLDiode{twoNode{name, n1, n2, 0, 0}, vf, gon, goff}
}

// NumExtra implements Device.
func (d *PWLDiode) NumExtra() int { return 0 }

// NumInputs implements Device.
func (d *PWLDiode) NumInputs() int { return 0 }

// Bind implements Device.
func (d *PWLDiode) Bind(nodes []int, extraBase, inputBase int) { d.ia, d.ib = nodes[0], nodes[1] }

// StampQ implements Device.
func (d *PWLDiode) StampQ(x, q []float64) {}

// StampF implements Device.
func (d *PWLDiode) StampF(x, u, f []float64) {
	i, _ := d.currentAndG(vAt(x, d.ia) - vAt(x, d.ib))
	accum(f, d.ia, i)
	accum(f, d.ib, -i)
}

// StampJQ implements Device.
func (d *PWLDiode) StampJQ(x []float64, add Stamper) {}

// StampJF implements Device.
func (d *PWLDiode) StampJF(x, u []float64, add Stamper) {
	_, g := d.currentAndG(vAt(x, d.ia) - vAt(x, d.ib))
	add(d.ia, d.ia, g)
	add(d.ia, d.ib, -g)
	add(d.ib, d.ia, -g)
	add(d.ib, d.ib, g)
}

// Inputs implements Device.
func (d *PWLDiode) Inputs(t float64, u []float64) {}
