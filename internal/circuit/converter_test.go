package circuit

import (
	"math"
	"testing"

	"repro/internal/dae"
	"repro/internal/transient"
)

// TestPWMControlWaveform pins the PWM pulse shape: plateau values, C¹ edge
// midpoints, fast-scale periodicity and the diagonal consistency contract
// between the univariate and bivariate views.
func TestPWMControlWaveform(t *testing.T) {
	const fsw, edge = 1e5, 0.05
	tsw := 1 / fsw
	p := NewPWMControl(DC(0.5), fsw, edge)
	if got := p.Eval2(0.25*tsw, 0); got != 1 {
		t.Fatalf("on-plateau value %v, want 1", got)
	}
	if got := p.Eval2(0.75*tsw, 0); got != 0 {
		t.Fatalf("off-plateau value %v, want 0", got)
	}
	// Edge midpoints: smoothstep(1/2) = 1/2 on both the rising and falling
	// ramps (the falling ramp starts at the duty point).
	if got := p.Eval2(0.5*edge*tsw, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rising-edge midpoint %v, want 0.5", got)
	}
	if got := p.Eval2((0.5+0.5*edge)*tsw, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("falling-edge midpoint %v, want 0.5", got)
	}
	// Fast-scale periodicity.
	if a, b := p.Eval2(0.3*tsw, 0), p.Eval2(7.3*tsw, 0); math.Abs(a-b) > 1e-9 {
		t.Fatalf("period 7 apart: %v vs %v", a, b)
	}
	// Diagonal consistency: the transient view is the t1 = t2 diagonal of
	// the bivariate view.
	w, w2 := p.Waveform(), p.Waveform2()
	for _, tt := range []float64{0, 0.13 * tsw, 0.5 * tsw, 3.77 * tsw} {
		if w(tt) != w2(tt, tt) {
			t.Fatalf("t=%g: univariate %v != diagonal %v", tt, w(tt), w2(tt, tt))
		}
	}
	// Default edge selection.
	if pd := NewPWMControl(DC(0.5), fsw, 0); pd.Edge != DefaultPWMEdge {
		t.Fatalf("default edge %v, want %v", pd.Edge, DefaultPWMEdge)
	}
}

// TestPWMControlDutyClamp: extreme duty commands degrade gracefully to the
// minimum/maximum realizable pulse — the edges never fold — and the output
// stays in [0, 1] across the whole period.
func TestPWMControlDutyClamp(t *testing.T) {
	const fsw, edge = 1e5, 0.05
	tsw := 1 / fsw
	for _, duty := range []float64{-1, 0, 0.02, 1, 2.5} {
		p := NewPWMControl(DC(duty), fsw, edge)
		for i := 0; i <= 400; i++ {
			v := p.Eval2(float64(i)/400*tsw, 0)
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("duty %g: value %v at sample %d out of [0,1]", duty, v, i)
			}
		}
	}
	// duty→0 clamps to the edge width: the pulse is exactly the two ramps
	// back-to-back, peaking at 1 where they meet.
	p0 := NewPWMControl(DC(0), fsw, edge)
	if got := p0.Eval2(edge*tsw, 0); got != 1 {
		t.Fatalf("duty 0 ramp junction %v, want 1", got)
	}
	if got := p0.Eval2(2.5*edge*tsw, 0); got != 0 {
		t.Fatalf("duty 0 past the minimum pulse %v, want 0", got)
	}
	// duty→1 clamps to 1−edge: a full off-ramp remains at the period end.
	p1 := NewPWMControl(DC(1), fsw, edge)
	if got := p1.Eval2((1-edge)*tsw, 0); got != 1 {
		t.Fatalf("duty 1 plateau end %v, want 1", got)
	}
	if got := p1.Eval2((1-0.5*edge)*tsw, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("duty 1 retained off-ramp midpoint %v, want 0.5", got)
	}
}

// TestSwitchConductance: the switch is a linear conductance interpolated by
// the control input, with the control clamped to [0, 1]. Checked through a
// resistive divider at DC: v(out)/v(in) = g/(g + 1/R).
func TestSwitchConductance(t *testing.T) {
	const gon, goff = 100.0, 1e-6
	cases := []struct {
		ctl  float64
		want float64 // expected conductance
	}{
		{0, goff},
		{1, gon},
		{0.5, goff + 0.5*(gon-goff)},
		{-2, goff}, // clamped low
		{3, gon},   // clamped high
	}
	for _, tc := range cases {
		ckt := New()
		ckt.MustAdd(NewVSource("V1", "in", Ground, DC(1)))
		ckt.MustAdd(NewSwitch("S1", "in", "out", gon, goff, DC(tc.ctl)))
		ckt.MustAdd(NewResistor("RL", "out", Ground, 1))
		sys, err := ckt.Build()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, sys.Dim())
		if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
			t.Fatalf("ctl=%g: %v", tc.ctl, err)
		}
		iout, _ := sys.NodeIndex("out")
		want := tc.want / (tc.want + 1)
		if math.Abs(x[iout]-want) > 1e-9*(1+want) {
			t.Fatalf("ctl=%g: v(out) = %v, want divider value %v", tc.ctl, x[iout], want)
		}
	}
}

// TestConverterDeviceJacobians validates the converter devices' analytic
// stamps against finite differences, evaluated mid-edge so the PWM control
// input sits at half scale (the Jacobian must hold along the ramp, not just
// at the 0/1 plateaus).
func TestConverterDeviceJacobians(t *testing.T) {
	ckt := New()
	ckt.MustAdd(NewVSource("V1", "in", Ground, DC(12)))
	pwm := NewPWMControl(DC(0.5), 1e5, 0.05)
	sw := NewSwitch("S1", "in", "sw", 100, 1e-6, pwm.Waveform())
	sw.Ctl2 = pwm.Waveform2()
	ckt.MustAdd(sw)
	ckt.MustAdd(NewPWLDiode("D1", Ground, "sw", 0.4, 20, 1e-6))
	ckt.MustAdd(NewResistor("R1", "sw", "out", 0.01))
	ckt.MustAdd(NewCapacitor("C1", "out", Ground, 1e-5))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	for i := range x {
		// Spread the state so the diode sits near its corner (where the
		// softplus curvature is largest) for at least one sign pattern.
		x[i] = 0.4 * float64(i+1) * math.Pow(-1, float64(i))
	}
	// t = a quarter of the rising edge: edge width 0.05/1e5 = 5e-7 s.
	worst, err := dae.CheckJacobians(sys, 1.25e-7, x)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-5 {
		t.Fatalf("converter device Jacobian mismatch: %v", worst)
	}
}

// TestPWLDiodeRegions pins the softplus blend: leakage-only well below Vf,
// the full on-conductance added well above it, half scale exactly at the
// corner, and monotone conductance through the blend (including across the
// exponent-clamp boundaries).
func TestPWLDiodeRegions(t *testing.T) {
	const vf, gon, goff = 0.4, 20.0, 1e-6
	d := NewPWLDiode("D", "a", "b", vf, gon, goff)
	if i, g := d.currentAndG(-5); math.Abs(i+5*goff) > 1e-12 || math.Abs(g-goff) > 1e-12 {
		t.Fatalf("reverse region: i=%v g=%v, want leakage only", i, g)
	}
	if _, g := d.currentAndG(vf); math.Abs(g-(goff+gon/2)) > 1e-9 {
		t.Fatalf("corner conductance %v, want goff + gon/2", g)
	}
	if i, g := d.currentAndG(vf + 2); math.Abs(i-(goff*(vf+2)+gon*2)) > 1e-6 || math.Abs(g-(goff+gon)) > 1e-9 {
		t.Fatalf("forward region: i=%v g=%v, want linear on-branch", i, g)
	}
	// Monotone conductance and continuous current across the whole blend,
	// including the ±pwlExpMax clamp handoffs.
	prevI, prevG := d.currentAndG(vf - 1.5)
	for v := vf - 1.5 + 1e-3; v <= vf+1.5; v += 1e-3 {
		i, g := d.currentAndG(v)
		if g < prevG-1e-12 {
			t.Fatalf("conductance not monotone at v=%v: %v < %v", v, g, prevG)
		}
		if step := i - prevI; step < -1e-12 || step > 1e-3*(goff+gon)+1e-9 {
			t.Fatalf("current jump at v=%v: %v", v, step)
		}
		prevI, prevG = i, g
	}
}

// TestPWLvsExpDiodeRectifier: both diode modes must rectify — conduct
// forward with their characteristic drop, block reverse — so the pwl mode
// is a drop-in idealization of the exponential device in converter
// netlists.
func TestPWLvsExpDiodeRectifier(t *testing.T) {
	build := func(forward bool, pwl bool) float64 {
		sign := 1.0
		if !forward {
			sign = -1
		}
		ckt := New()
		ckt.MustAdd(NewVSource("V1", "in", Ground, DC(sign*5)))
		if pwl {
			ckt.MustAdd(NewPWLDiode("D1", "in", "out", 0.4, 20, 1e-6))
		} else {
			ckt.MustAdd(NewDiode("D1", "in", "out", 1e-14, 0.02585))
		}
		ckt.MustAdd(NewResistor("RL", "out", Ground, 5))
		sys, err := ckt.Build()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, sys.Dim())
		if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
			t.Fatal(err)
		}
		iout, _ := sys.NodeIndex("out")
		return x[iout]
	}
	for _, pwl := range []bool{true, false} {
		if v := build(true, pwl); v < 4 || v > 5 {
			t.Fatalf("pwl=%v forward output %v, want a diode drop below 5 V", pwl, v)
		}
		if v := build(false, pwl); math.Abs(v) > 1e-3 {
			t.Fatalf("pwl=%v reverse output %v, want blocked", pwl, v)
		}
	}
	// The pwl drop is the declared forward voltage plus the resistive
	// on-branch, not the exponential's log-of-current scale.
	vpwl := build(true, true)
	drop := 5 - vpwl
	iload := vpwl / 5
	want := 0.4 + iload/20
	if math.Abs(drop-want) > 0.02 {
		t.Fatalf("pwl forward drop %v, want vf + i/gon = %v", drop, want)
	}
}
