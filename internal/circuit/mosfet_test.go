package circuit

import (
	"math"
	"testing"

	"repro/internal/dae"
	"repro/internal/transient"
	"repro/internal/wave"
)

func TestMOSFETSquareLawDC(t *testing.T) {
	// Common-source: Vg swept, drain tied to a stiff 5 V through 1 Ω so the
	// device stays in saturation; check Id = K/2 (Vgs−Vt)².
	k, vt := 2e-3, 0.7
	for _, vg := range []float64{0.5, 0.9, 1.2, 1.8} {
		ckt := New()
		ckt.MustAdd(NewVSource("VD", "d", Ground, DC(5)))
		ckt.MustAdd(NewVSource("VG", "g", Ground, DC(vg)))
		m := NewNMOS("M1", "d", "g", Ground, k, vt, 0)
		ckt.MustAdd(m)
		sys, err := ckt.Build()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, sys.Dim())
		if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
			t.Fatal(err)
		}
		// Drain current = -branch current of VD (current out of supply).
		vdIdx := 2 // extras follow the 2 nodes in add order: VD then VG
		got := -x[sys.NumNodes()+vdIdx-2]
		want := 0.0
		if vg > vt {
			want = 0.5 * k * (vg - vt) * (vg - vt)
		}
		if math.Abs(got-want) > 1e-9+1e-6*want {
			t.Fatalf("Vg=%v: Id = %v, want %v", vg, got, want)
		}
	}
}

func TestMOSFETTriodeRegion(t *testing.T) {
	// Small Vds with large Vgs: triode formula.
	k, vt := 1e-3, 0.5
	ckt := New()
	ckt.MustAdd(NewVSource("VD", "d", Ground, DC(0.2)))
	ckt.MustAdd(NewVSource("VG", "g", Ground, DC(2.0)))
	ckt.MustAdd(NewNMOS("M1", "d", "g", Ground, k, vt, 0))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	got := -x[sys.NumNodes()]
	want := k * ((2.0-vt)*0.2 - 0.2*0.2/2)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("triode Id = %v, want %v", got, want)
	}
}

func TestMOSFETJacobiansAllRegions(t *testing.T) {
	ckt := New()
	ckt.MustAdd(NewResistor("Rd", "d", Ground, 1e3))
	ckt.MustAdd(NewResistor("Rg", "g", Ground, 1e3))
	ckt.MustAdd(NewResistor("Rs", "s", Ground, 1e3))
	ckt.MustAdd(NewNMOS("M1", "d", "g", "s", 2e-3, 0.7, 0.02))
	ckt.MustAdd(NewPMOS("M2", "d", "g", "s", 1e-3, 0.6, 0.01))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Probe several operating regions including reversed Vds.
	cases := [][]float64{
		{2.0, 1.5, 0},    // NMOS saturation
		{0.2, 1.5, 0},    // NMOS triode
		{2.0, 0.2, 0},    // NMOS cutoff
		{0, 1.5, 2.0},    // reversed Vds
		{-2.0, -1.5, 0},  // PMOS active
		{1.3, 0.8, -0.4}, // mixed
	}
	for _, x := range cases {
		worst, err := dae.CheckJacobians(sys, 0, x)
		if err != nil {
			t.Fatal(err)
		}
		if worst > 1e-5 {
			t.Fatalf("MOSFET Jacobian mismatch %v at x=%v", worst, x)
		}
	}
}

func TestMOSFETCutoffConductsNothing(t *testing.T) {
	m := NewNMOS("M1", "d", "g", "s", 1e-3, 0.7, 0)
	m.Bind([]int{0, 1, 2}, 3, 0)
	f := make([]float64, 3)
	m.StampF([]float64{5, 0.2, 0}, nil, f)
	if f[0] != 0 || f[2] != 0 {
		t.Fatalf("cutoff should conduct nothing: %v", f)
	}
}

func TestCrossCoupledLCOscillator(t *testing.T) {
	// The classic cross-coupled NMOS LC VCO: two transistors provide
	// −gm/2 differential conductance around a pair of LC tanks. It must
	// start up from a small imbalance and oscillate near 1/(2π√(LC)).
	const (
		vdd = 2.5
		l   = 10e-6
		c   = 1e-9
		kp  = 2e-3
		vt  = 0.7
	)
	ckt := New()
	ckt.MustAdd(NewVSource("VDD", "vdd", Ground, DC(vdd)))
	ckt.MustAdd(NewInductor("L1", "vdd", "a", l, 2))
	ckt.MustAdd(NewInductor("L2", "vdd", "b", l, 2))
	ckt.MustAdd(NewCapacitor("C1", "a", Ground, c))
	ckt.MustAdd(NewCapacitor("C2", "b", Ground, c))
	ckt.MustAdd(NewNMOS("M1", "a", "b", "tail", kp, vt, 0.01))
	ckt.MustAdd(NewNMOS("M2", "b", "a", "tail", kp, vt, 0.01))
	ckt.MustAdd(NewISource("IT", Ground, "tail", DC(2e-3))) // pulls 2 mA from the tail
	ckt.MustAdd(NewResistor("Rt", "tail", Ground, 1e6))     // keeps the tail node defined at startup
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	ia, _ := sys.NodeIndex("a")
	ib, _ := sys.NodeIndex("b")
	// Perturb differentially to break the symmetric (non-oscillating) state.
	x[ia] += 5e-2
	x[ib] -= 5e-2
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*c))
	res, err := transient.Simulate(sys, x, 0, 40/f0, transient.Options{Method: transient.Trap, H: 1 / (f0 * 80)})
	if err != nil {
		t.Fatal(err)
	}
	// Differential output over the last 10 cycles.
	var ts, vs []float64
	for i, tv := range res.T {
		if tv > 30/f0 {
			ts = append(ts, tv)
			vs = append(vs, res.X[i][ia]-res.X[i][ib])
		}
	}
	if pp := wave.PeakToPeak(vs); pp < 0.5 {
		t.Fatalf("cross-coupled pair failed to start: differential swing %v", pp)
	}
	inst := wave.InstFrequency(ts, vs)
	if inst.Len() == 0 {
		t.Fatal("no oscillation detected")
	}
	fMeas := inst.Y[inst.Len()/2]
	if math.Abs(fMeas-f0) > 0.1*f0 {
		t.Fatalf("oscillation at %v, want ≈ %v", fMeas, f0)
	}
}
