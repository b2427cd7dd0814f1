package circuit

import (
	"math"
	"testing"

	"repro/internal/dae"
	"repro/internal/transient"
)

func buildRC(t *testing.T, r, c float64, w Waveform) *System {
	t.Helper()
	ckt := New()
	ckt.MustAdd(NewISource("I1", "out", Ground, w))
	ckt.MustAdd(NewResistor("R1", "out", Ground, r))
	ckt.MustAdd(NewCapacitor("C1", "out", Ground, c))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRCChargesToIR(t *testing.T) {
	sys := buildRC(t, 1e3, 1e-6, DC(1e-3))
	res, err := transient.Simulate(sys, []float64{0}, 0, 10e-3, transient.Options{Method: transient.Trap, H: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	got := res.X[len(res.X)-1][0]
	if math.Abs(got-1) > 1e-4 {
		t.Fatalf("v(∞) = %v, want 1", got)
	}
}

func TestDuplicateDeviceNameRejected(t *testing.T) {
	ckt := New()
	ckt.MustAdd(NewResistor("R1", "a", Ground, 1))
	if err := ckt.Add(NewResistor("R1", "b", Ground, 1)); err == nil {
		t.Fatal("duplicate name should fail")
	}
	if err := ckt.Add(NewResistor("", "b", Ground, 1)); err == nil {
		t.Fatal("empty name should fail")
	}
}

func TestEmptyCircuitRejected(t *testing.T) {
	if _, err := New().Build(); err == nil {
		t.Fatal("empty circuit should fail to build")
	}
}

func TestUnknownOscNodeRejected(t *testing.T) {
	ckt := New()
	ckt.MustAdd(NewResistor("R1", "a", Ground, 1))
	ckt.SetOscVar("nope")
	if _, err := ckt.Build(); err == nil {
		t.Fatal("unknown osc node should fail")
	}
}

func TestNodeIndexAndNames(t *testing.T) {
	ckt := New()
	ckt.MustAdd(NewResistor("R1", "b", "a", 1))
	ckt.MustAdd(NewInductor("L1", "a", Ground, 1e-6, 0))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", sys.NumNodes())
	}
	ia, err := sys.NodeIndex("a")
	if err != nil {
		t.Fatal(err)
	}
	if sys.StateName(ia) != "v(a)" {
		t.Fatalf("StateName = %q", sys.StateName(ia))
	}
	if sys.StateName(2) != "L1#0" {
		t.Fatalf("extra name = %q", sys.StateName(2))
	}
	if _, err := sys.NodeIndex("zzz"); err == nil {
		t.Fatal("unknown node lookup should fail")
	}
}

func TestVoltageDividerDC(t *testing.T) {
	ckt := New()
	ckt.MustAdd(NewVSource("V1", "in", Ground, DC(10)))
	ckt.MustAdd(NewResistor("R1", "in", "mid", 1e3))
	ckt.MustAdd(NewResistor("R2", "mid", Ground, 3e3))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	mid, _ := sys.NodeIndex("mid")
	if math.Abs(x[mid]-7.5) > 1e-8 {
		t.Fatalf("divider mid = %v, want 7.5", x[mid])
	}
	in, _ := sys.NodeIndex("in")
	if math.Abs(x[in]-10) > 1e-8 {
		t.Fatalf("source node = %v, want 10", x[in])
	}
}

func TestVSourceBranchCurrent(t *testing.T) {
	ckt := New()
	vs := NewVSource("V1", "in", Ground, DC(5))
	ckt.MustAdd(vs)
	ckt.MustAdd(NewResistor("R1", "in", Ground, 1e3))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	// KCL at "in": i_R + i_branch = 0 -> branch current = -5mA.
	if math.Abs(x[vs.Current()]+5e-3) > 1e-9 {
		t.Fatalf("branch current = %v, want -5e-3", x[vs.Current()])
	}
}

func TestDiodeRectifierDC(t *testing.T) {
	// V -> R -> diode to ground: solve and verify the diode equation holds.
	ckt := New()
	ckt.MustAdd(NewVSource("V1", "in", Ground, DC(5)))
	ckt.MustAdd(NewResistor("R1", "in", "d", 1e3))
	dio := NewDiode("D1", "d", Ground, 1e-14, 0.02585)
	ckt.MustAdd(dio)
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	id, _ := sys.NodeIndex("d")
	vd := x[id]
	iD, _ := dio.currentAndG(vd)
	iR := (5 - vd) / 1e3
	if math.Abs(iD-iR) > 1e-9*(1+math.Abs(iR)) {
		t.Fatalf("KCL violated: diode %v vs resistor %v", iD, iR)
	}
	if vd < 0.5 || vd > 0.8 {
		t.Fatalf("diode drop %v outside the plausible range", vd)
	}
}

func TestVCCSGain(t *testing.T) {
	// VCCS driving a load resistor: v_out = -Gm*R_load*v_in (current into out).
	ckt := New()
	ckt.MustAdd(NewVSource("V1", "in", Ground, DC(0.1)))
	ckt.MustAdd(NewVCCS("G1", "out", Ground, "in", Ground, 1e-3))
	ckt.MustAdd(NewResistor("RL", "out", Ground, 10e3))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	iout, _ := sys.NodeIndex("out")
	if math.Abs(x[iout]+1) > 1e-8 {
		t.Fatalf("VCCS out = %v, want -1", x[iout])
	}
}

func TestAllDeviceJacobians(t *testing.T) {
	// One circuit exercising every device; validated against finite
	// differences through dae.CheckJacobians.
	ckt := New()
	ckt.MustAdd(NewVSource("V1", "in", Ground, Sine(0.2, 1, 50, 0)))
	ckt.MustAdd(NewResistor("R1", "in", "a", 100))
	ckt.MustAdd(NewCapacitor("C1", "a", Ground, 1e-6))
	ckt.MustAdd(NewInductor("L1", "a", "b", 1e-3, 2))
	ckt.MustAdd(NewCubicConductor("GN1", "b", Ground, -1e-3, 1e-3))
	ckt.MustAdd(NewDiode("D1", "a", "b", 1e-14, 0.02585))
	ckt.MustAdd(NewVCCS("G1", "b", Ground, "a", Ground, 5e-4))
	ckt.MustAdd(NewISource("I1", "b", Ground, DC(1e-3)))
	ckt.MustAdd(NewMEMSVaractor("CV1", "a", Ground, 1e-9, 1, 1e-12, 1e-7, 1, 0.4, DC(1.5)))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	for i := range x {
		x[i] = 0.1 * float64(i+1) * math.Pow(-1, float64(i))
	}
	worst, err := dae.CheckJacobians(sys, 0.01, x)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-5 {
		t.Fatalf("device Jacobian mismatch: %v", worst)
	}
}

func TestWaveforms(t *testing.T) {
	if DC(3)(100) != 3 {
		t.Fatal("DC wrong")
	}
	s := Sine(1, 2, 10, 0)
	if math.Abs(s(0)-1) > 1e-12 {
		t.Fatalf("Sine(0) = %v", s(0))
	}
	if math.Abs(s(0.025)-3) > 1e-9 {
		t.Fatalf("Sine(quarter) = %v", s(0.025))
	}
	p := Pulse(0, 5, 1e-3, 1e-4, 2e-4, 1e-4, 1e-2)
	if p(0) != 0 {
		t.Fatal("pulse before delay")
	}
	if math.Abs(p(1e-3+5e-5)-2.5) > 1e-9 {
		t.Fatalf("pulse mid-rise = %v", p(1e-3+5e-5))
	}
	if p(1e-3+2e-4) != 5 {
		t.Fatal("pulse top")
	}
	if p(1e-3+1e-2) != 0 {
		t.Fatal("pulse periodic base")
	}
	w := PWL([]float64{0, 1, 2}, []float64{0, 10, 0})
	if w(-1) != 0 || w(3) != 0 {
		t.Fatal("PWL clamp")
	}
	if w(0.5) != 5 || w(1.5) != 5 {
		t.Fatalf("PWL interior: %v %v", w(0.5), w(1.5))
	}
	if PWL(nil, nil)(1) != 0 {
		t.Fatal("empty PWL should be 0")
	}
}

func TestVCOBuildShape(t *testing.T) {
	vco, err := NewVCO(DefaultVCOParams())
	if err != nil {
		t.Fatal(err)
	}
	if vco.Dim() != 4 {
		t.Fatalf("VCO dim = %d, want 4 (v, iL, u, w)", vco.Dim())
	}
	if vco.NumInputs() != 1 {
		t.Fatalf("VCO inputs = %d", vco.NumInputs())
	}
	if vco.OscVar() != vco.TankNode {
		t.Fatal("OscVar should be the tank node")
	}
	if _, err := NewVCO(VCOParams{}); err == nil {
		t.Fatal("VCO without control waveform should fail")
	}
}

func TestVCODesignCalibration(t *testing.T) {
	vco, err := NewVCO(DefaultVCOParams())
	if err != nil {
		t.Fatal(err)
	}
	// Static design equations: at Vc=1.5 the small-signal resonance should
	// be near the 0.75 MHz nominal.
	u := vco.StaticDisplacement(1.5)
	f := vco.FreqAtDisplacement(u)
	if math.Abs(f-VCONominalFreq) > 0.03*VCONominalFreq {
		t.Fatalf("design frequency at 1.5V = %v, want ≈ %v", f, VCONominalFreq)
	}
	// Sweep extremes: the frequency modulation factor should be ≈3 (§5).
	fMin, fMax := math.Inf(1), 0.0
	for i := 0; i <= 100; i++ {
		tt := float64(i) / 100 * 40e-6
		vc := vco.Params.VCtl(tt)
		ff := vco.FreqAtDisplacement(vco.StaticDisplacement(vc))
		if ff < fMin {
			fMin = ff
		}
		if ff > fMax {
			fMax = ff
		}
	}
	ratio := fMax / fMin
	if ratio < 2.5 || ratio > 3.8 {
		t.Fatalf("frequency modulation factor = %v, want ≈3", ratio)
	}
}

func TestVCOJacobians(t *testing.T) {
	vco, err := NewVCO(AirVCOParams())
	if err != nil {
		t.Fatal(err)
	}
	worst, err := dae.CheckJacobians(vco, 1e-4, []float64{1.7, -0.02, 2.5, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-5 {
		t.Fatalf("VCO Jacobian mismatch %v", worst)
	}
}

func TestVCOOscillatesInTransient(t *testing.T) {
	p := DefaultVCOParams()
	p.VCtl = DC(1.5) // freeze the control: unforced oscillator
	vco, err := NewVCO(p)
	if err != nil {
		t.Fatal(err)
	}
	u0 := vco.StaticDisplacement(1.5)
	x0 := []float64{0.1, 0, u0, 0} // kick the tank
	tEnd := 40e-6
	res, err := transient.Simulate(vco, x0, 0, tEnd, transient.Options{Method: transient.Trap, H: 1.0 / (VCONominalFreq * 200)})
	if err != nil {
		t.Fatal(err)
	}
	// Inspect the last 10µs: sustained oscillation near 0.75 MHz.
	var ts, vs []float64
	for i, tv := range res.T {
		if tv > tEnd-10e-6 {
			ts = append(ts, tv)
			vs = append(vs, res.X[i][vco.TankNode])
		}
	}
	peak := 0.0
	for _, v := range vs {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak < 1.0 || peak > 2.5 {
		t.Fatalf("steady oscillation amplitude = %v, want ≈1.6", peak)
	}
	// Count rising crossings to estimate frequency.
	count := 0
	for i := 1; i < len(vs); i++ {
		if vs[i-1] <= 0 && vs[i] > 0 {
			count++
		}
	}
	f := float64(count) / 10e-6
	if math.Abs(f-VCONominalFreq) > 0.08*VCONominalFreq {
		t.Fatalf("measured frequency %v, want ≈ %v", f, VCONominalFreq)
	}
}
