package transient

import (
	"context"
	"math"
	"testing"

	"repro/internal/dae"
	"repro/internal/la"
	"repro/internal/solverr"
)

func TestRCStepDecay(t *testing.T) {
	// v' = -v/(RC): v(t) = v0 exp(-t/RC).
	s := &dae.LinearRC{C: 1e-6, R: 1e3} // tau = 1ms
	tau := 1e-3
	res, err := Simulate(s, []float64{1}, 0, 5*tau, Options{Method: Trap, H: tau / 200})
	if err != nil {
		t.Fatal(err)
	}
	got := res.X[len(res.X)-1][0]
	want := math.Exp(-5)
	if math.Abs(got-want) > 1e-4 {
		t.Fatalf("v(5τ) = %v, want %v", got, want)
	}
}

func TestRCSinusoidalSteadyState(t *testing.T) {
	// Driven RC: analytic magnitude |Z| = R/sqrt(1+(ωRC)²) after transients.
	r, c := 1e3, 1e-6
	w := 2 * math.Pi * 1000.0
	s := &dae.LinearRC{C: c, R: r, IFunc: func(t float64) float64 { return 1e-3 * math.Sin(w*t) }}
	res, err := Simulate(s, []float64{0}, 0, 20e-3, Options{Method: Trap, H: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Peak of the last 1ms.
	peak := 0.0
	for i, tv := range res.T {
		if tv > 19e-3 {
			if a := math.Abs(res.X[i][0]); a > peak {
				peak = a
			}
		}
	}
	want := 1e-3 * r / math.Sqrt(1+w*w*r*r*c*c)
	if math.Abs(peak-want) > 0.02*want {
		t.Fatalf("steady-state peak = %v, want %v", peak, want)
	}
}

func TestLCEnergyTrapNearConservative(t *testing.T) {
	// Lossless LC with Trap: amplitude must be conserved to high accuracy.
	s := &dae.LinearLC{L: 1e-6, C: 1e-6, R: 0}
	period := 2 * math.Pi / s.OmegaNatural()
	res, err := Simulate(s, []float64{1, 0}, 0, 20*period, Options{Method: Trap, H: period / 100})
	if err != nil {
		t.Fatal(err)
	}
	last := res.X[len(res.X)-1]
	energy := 0.5*s.C*last[0]*last[0] + 0.5*s.L*last[1]*last[1]
	if math.Abs(energy-0.5*s.C) > 1e-3*0.5*s.C {
		t.Fatalf("Trap energy drifted: %v vs %v", energy, 0.5*s.C)
	}
}

func TestBEDampsLC(t *testing.T) {
	// BE is dissipative: the lossless LC amplitude must decay, never grow.
	s := &dae.LinearLC{L: 1e-6, C: 1e-6, R: 0}
	period := 2 * math.Pi / s.OmegaNatural()
	res, err := Simulate(s, []float64{1, 0}, 0, 10*period, Options{Method: BE, H: period / 40})
	if err != nil {
		t.Fatal(err)
	}
	last := res.X[len(res.X)-1]
	amp := math.Hypot(last[0], last[1]*math.Sqrt(s.L/s.C))
	if amp >= 1 {
		t.Fatalf("BE should damp the oscillation, amplitude = %v", amp)
	}
	if amp > 0.9 {
		t.Fatalf("BE at 40 pts/cycle should damp noticeably, amplitude = %v", amp)
	}
}

func TestBDF2MoreAccurateThanBE(t *testing.T) {
	s := &dae.LinearRC{C: 1, R: 1} // tau = 1
	ref := math.Exp(-1)
	run := func(m Method) float64 {
		res, err := Simulate(s, []float64{1}, 0, 1, Options{Method: m, H: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.X[len(res.X)-1][0] - ref)
	}
	if errBDF2, errBE := run(BDF2), run(BE); errBDF2 >= errBE {
		t.Fatalf("BDF2 error %v should beat BE error %v", errBDF2, errBE)
	}
}

func TestTrapSecondOrderConvergence(t *testing.T) {
	s := &dae.LinearRC{C: 1, R: 1}
	ref := math.Exp(-1)
	errAt := func(h float64) float64 {
		res, err := Simulate(s, []float64{1}, 0, 1, Options{Method: Trap, H: h})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.X[len(res.X)-1][0] - ref)
	}
	e1, e2 := errAt(0.02), errAt(0.01)
	ratio := e1 / e2
	if ratio < 3.4 || ratio > 4.6 {
		t.Fatalf("Trap halving error ratio = %v, want ≈4 (order 2)", ratio)
	}
}

func TestVanDerPolLimitCycleAmplitude(t *testing.T) {
	// For small mu the limit-cycle amplitude approaches 2 (perturbation theory).
	s := &dae.VanDerPol{Mu: 0.05}
	res, err := Simulate(s, []float64{0.5, 0}, 0, 300, Options{Method: Trap, H: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for i, tv := range res.T {
		if tv > 250 {
			if a := math.Abs(res.X[i][0]); a > peak {
				peak = a
			}
		}
	}
	if math.Abs(peak-2) > 0.05 {
		t.Fatalf("van der Pol amplitude = %v, want ≈2", peak)
	}
}

func TestResultAtInterpolates(t *testing.T) {
	r := &Result{T: []float64{0, 1, 2}, X: [][]float64{{0}, {10}, {20}}}
	if got := r.At(0.5, 0); got != 5 {
		t.Fatalf("At(0.5) = %v", got)
	}
	if got := r.At(-1, 0); got != 0 {
		t.Fatalf("At(-1) = %v", got)
	}
	if got := r.At(3, 0); got != 20 {
		t.Fatalf("At(3) = %v", got)
	}
}

func TestResultComponent(t *testing.T) {
	r := &Result{T: []float64{0, 1}, X: [][]float64{{1, 2}, {3, 4}}}
	c := r.Component(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Component = %v", c)
	}
}

// TestSimulateBadArgs pins the bad-input guard: a wrong-sized start state,
// or a step, start or end time that does not give a positive finite step
// and span, is rejected up front instead of returning a run of zero steps,
// or a NaN time point, with a nil error.
func TestSimulateBadArgs(t *testing.T) {
	s := &dae.LinearRC{C: 1, R: 1}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name      string
		x0        []float64
		t0, t1, h float64
	}{
		{"dimension", []float64{1, 2}, 0, 1, 0.1},
		{"H missing", []float64{1}, 0, 1, 0},
		{"t1<t0", []float64{1}, 1, 0, 0.1},
		{"t1=t0", []float64{1}, 1, 1, 0.1},
		{"t1=+Inf", []float64{1}, 0, inf, 0.1},
		{"t1=NaN", []float64{1}, 0, nan, 0.1},
		{"t0=NaN", []float64{1}, nan, 1, 0.1},
		{"t0=-Inf", []float64{1}, -inf, 1, 0.1},
		{"H=NaN", []float64{1}, 0, 1, nan},
		{"H=+Inf", []float64{1}, 0, 1, inf},
	} {
		res, err := Simulate(s, c.x0, c.t0, c.t1, Options{Method: Trap, H: c.h})
		if !solverr.IsKind(err, solverr.KindBadInput) {
			t.Errorf("%s: err = %v (result %v), want a bad-input error", c.name, err, res)
		}
	}
}

func TestDCOperatingPointLinear(t *testing.T) {
	// DC of driven RC with constant input I: v = I R.
	s := &dae.LinearRC{C: 1e-6, R: 2e3, IFunc: func(t float64) float64 { return 1e-3 }}
	x := []float64{0}
	if err := DCOperatingPoint(s, 0, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 {
		t.Fatalf("DC v = %v, want 2", x[0])
	}
}

func TestDCOperatingPointVanDerPol(t *testing.T) {
	// The only equilibrium is the origin.
	s := &dae.VanDerPol{Mu: 1}
	x := []float64{0.7, -0.3}
	if err := DCOperatingPoint(s, 0, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]) > 1e-7 || math.Abs(x[1]) > 1e-7 {
		t.Fatalf("equilibrium = %v, want origin", x)
	}
}

func TestMethodString(t *testing.T) {
	if BE.String() != "BE" || Trap.String() != "TRAP" || BDF2.String() != "BDF2" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should still render")
	}
}

// TestSensitivityOfLinearDecay checks the pass where it is exact: every
// rule maps an unforced RC's start voltage linearly onto its end voltage,
// so the seeded pass must return x_end/x0, and its end-time column the
// derivative of the closed-form step product in the span (checked here by
// central differences, which a linear step solves without Newton noise).
func TestSensitivityOfLinearDecay(t *testing.T) {
	s := &dae.LinearRC{C: 1, R: 1}
	const span, steps = 2.0, 64
	for _, m := range []Method{BE, Trap, BDF2} {
		end := func(T float64) (*Result, float64) {
			res, err := Simulate(s, []float64{1}, 0, T, Options{Method: m, H: T / steps})
			if err != nil {
				t.Fatal(err)
			}
			return res, res.X[len(res.X)-1][0]
		}
		res, xEnd := end(span)
		sens, dT, err := Sensitivity(context.Background(), s, res, m, la.Identity(1), true)
		if err != nil {
			t.Fatal(err)
		}
		if got := sens.At(0, 0); math.Abs(got-xEnd) > 1e-12 {
			t.Errorf("%v: dx_end/dx0 = %.15g, want x_end/x0 = %.15g", m, got, xEnd)
		}
		_, up := end(span * (1 + 1e-5))
		_, down := end(span * (1 - 1e-5))
		if want := (up - down) / (2e-5 * span); math.Abs(dT[0]-want) > 1e-8 {
			t.Errorf("%v: dx_end/dT = %.12g, central differences %.12g", m, dT[0], want)
		}
	}
	if _, _, err := Sensitivity(context.Background(), s, &Result{}, BE, la.Identity(1), false); !solverr.IsKind(err, solverr.KindBadInput) {
		t.Errorf("empty run: %v, want a bad-input error", err)
	}
}
