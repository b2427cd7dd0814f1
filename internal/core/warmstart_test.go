package core

import (
	"math"
	"testing"

	"repro/internal/dae"
)

// ctlVCO returns the test VCO with a constant control offset c (no
// modulation): the "parameter point" of a tuning sweep.
func ctlVCO(c float64) *dae.SimpleVCO {
	s := testVCO(300)
	s.Ctl = func(float64) float64 { return c }
	return s
}

func TestWarmStartNilSafety(t *testing.T) {
	var w *WarmStart
	if w.HasOrbit(3) {
		t.Fatal("nil carrier claims an orbit")
	}
	w.SetOrbit([]float64{1, 2, 3}, 1) // must not panic
}

func TestWarmStartPayloadGates(t *testing.T) {
	w := &WarmStart{}
	w.SetOrbit([]float64{1, 0, 1}, 4.5)
	if !w.HasOrbit(3) {
		t.Fatal("finite orbit of matching dimension rejected")
	}
	if w.HasOrbit(4) {
		t.Fatal("dimension mismatch accepted")
	}
	w.T = 0
	if w.HasOrbit(3) {
		t.Fatal("non-positive period accepted")
	}
	w.T = 4.5
	w.X0[1] = math.NaN()
	if w.HasOrbit(3) {
		t.Fatal("NaN orbit accepted")
	}
}

// TestInitialConditionWarmOrbit walks two neighboring control points: the
// first IC is cold and harvests its orbit, the second restarts shooting from
// it — skipping the settling transient — and must land on the same limit
// cycle a cold solve finds.
func TestInitialConditionWarmOrbit(t *testing.T) {
	ws := &WarmStart{}
	_, _, err := InitialCondition(ctlVCO(1.0), []float64{1, 0, 1}, 4.5,
		ICOptions{N1: 25, SettleCycles: 10, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Uses != 0 || ws.Fallbacks != 0 {
		t.Fatalf("cold IC touched warm counters: uses=%d fallbacks=%d", ws.Uses, ws.Fallbacks)
	}
	if !ws.HasOrbit(3) {
		t.Fatal("cold IC did not harvest its orbit")
	}

	sys2 := ctlVCO(1.05)
	_, omegaWarm, err := InitialCondition(sys2, []float64{1, 0, 1}, 4.5,
		ICOptions{N1: 25, SettleCycles: 10, Warm: ws})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Uses != 1 || ws.Fallbacks != 0 {
		t.Fatalf("warm IC not adopted: uses=%d fallbacks=%d", ws.Uses, ws.Fallbacks)
	}
	_, omegaCold, err := InitialCondition(sys2, []float64{1, 0, 1}, 4.5,
		ICOptions{N1: 25, SettleCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(omegaWarm - omegaCold); d > 1e-6*omegaCold {
		t.Fatalf("warm IC frequency drifted from cold: warm=%v cold=%v", omegaWarm, omegaCold)
	}
	// The carrier now holds the new point's orbit (period moved with the
	// control), ready for the next sweep point.
	if !ws.HasOrbit(3) {
		t.Fatal("warm IC did not refresh the orbit")
	}
	if math.Abs(1/ws.T-omegaWarm) > 1e-9*omegaWarm {
		t.Fatalf("harvested period %v inconsistent with omega %v", ws.T, omegaWarm)
	}
}

// TestInitialConditionWarmFallback hands the carrier a finite orbit far off
// the limit cycle: warm shooting fails supervision, the cold preamble rescues
// the point, and the result is bitwise the cold call's.
func TestInitialConditionWarmFallback(t *testing.T) {
	sys := ctlVCO(1.0)
	opt := ICOptions{N1: 25, SettleCycles: 10}
	xCold, omegaCold, err := InitialCondition(sys, []float64{1, 0, 1}, 4.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	ws := &WarmStart{X0: []float64{1e3, 1e3, 1e3}, T: 4.5}
	opt.Warm = ws
	xWarm, omegaWarm, err := InitialCondition(sys, []float64{1, 0, 1}, 4.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Uses != 0 || ws.Fallbacks != 1 {
		t.Fatalf("uses=%d fallbacks=%d, want 0 and 1", ws.Uses, ws.Fallbacks)
	}
	if omegaWarm != omegaCold {
		t.Fatalf("fallback omega %v differs from cold %v", omegaWarm, omegaCold)
	}
	for i := range xCold {
		if xWarm[i] != xCold[i] {
			t.Fatalf("fallback xhat0[%d] = %v differs from cold %v", i, xWarm[i], xCold[i])
		}
	}
	// The carrier now holds the rescued orbit for the next sweep point.
	if 1/ws.T != omegaCold {
		t.Fatalf("carrier period %v not refreshed to the cold orbit's %v", ws.T, 1/omegaCold)
	}
}
