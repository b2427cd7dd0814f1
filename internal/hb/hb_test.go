package hb

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dae"
	"repro/internal/shooting"
	"repro/internal/solverr"
	"repro/internal/transient"
)

func TestForcedLinearRCMatchesAnalytic(t *testing.T) {
	r, c, f0 := 1e3, 1e-6, 1e3
	w := 2 * math.Pi * f0
	sys := &dae.LinearRC{C: c, R: r, IFunc: func(t float64) float64 { return 1e-3 * math.Sin(w*t) }}
	sol, err := Forced(sys, 1/f0, nil, Options{N: 33})
	if err != nil {
		t.Fatal(err)
	}
	// Fundamental amplitude from the harmonic coefficients.
	h := sol.Harmonics(0)
	m := (len(h) - 1) / 2
	amp := 2 * cmplx.Abs(h[m+1])
	want := 1e-3 * r / math.Sqrt(1+w*w*r*r*c*c)
	if math.Abs(amp-want) > 1e-3*want {
		t.Fatalf("fundamental amplitude %v, want %v", amp, want)
	}
	// DC component must vanish.
	if cmplx.Abs(h[m]) > 1e-9 {
		t.Fatalf("DC = %v, want 0", h[m])
	}
}

func orbitGuess(t *testing.T, orbit *transient.Result, T float64, N, n int) [][]float64 {
	t.Helper()
	x0 := make([][]float64, N)
	for j := 0; j < N; j++ {
		tt := T * float64(j) / float64(N)
		x0[j] = make([]float64, n)
		for i := 0; i < n; i++ {
			x0[j][i] = orbit.At(tt, i)
		}
	}
	return x0
}

func TestForcedMatchesShooting(t *testing.T) {
	// The forced van der Pol can have several coexisting period-T orbits,
	// so seed HB with the shooting solution and check the two methods agree
	// on that orbit (a genuine cross-method consistency check).
	T := 7.0
	sys := &dae.VanDerPol{Mu: 1, Force: func(t float64) float64 { return 0.5 * math.Sin(2*math.Pi*t/T) }}
	sh, err := shooting.Forced(sys, []float64{1, 0}, T, shooting.Options{Method: transient.Trap, PointsPerPeriod: 2048})
	if err != nil {
		t.Fatal(err)
	}
	N := 65
	hbSol, err := Forced(sys, T, orbitGuess(t, sh.Orbit, T, N, 2), Options{N: N, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(hbSol.X[0][i]-sh.X0[i]) > 5e-3*(1+math.Abs(sh.X0[i])) {
			t.Fatalf("HB x0[%d]=%v vs shooting %v", i, hbSol.X[0][i], sh.X0[i])
		}
	}
}

func cosGuess(N int, amp, omega float64) [][]float64 {
	x0 := make([][]float64, N)
	for j := 0; j < N; j++ {
		tau := float64(j) / float64(N)
		x0[j] = []float64{amp * math.Cos(2*math.Pi*tau), -amp * omega * math.Sin(2*math.Pi*tau)}
	}
	return x0
}

func TestAutonomousVanDerPolPeriod(t *testing.T) {
	mu := 0.2
	sys := &dae.VanDerPol{Mu: mu}
	sol, err := Autonomous(sys, 2*math.Pi, cosGuess(41, 2, 1), Options{N: 41})
	if err != nil {
		t.Fatal(err)
	}
	wantT := 2 * math.Pi * (1 + mu*mu/16)
	if math.Abs(sol.T-wantT) > 1e-3*wantT {
		t.Fatalf("HB period %v, want %v", sol.T, wantT)
	}
	// Amplitude ≈ 2.
	h := sol.Harmonics(0)
	m := (len(h) - 1) / 2
	if amp := 2 * cmplx.Abs(h[m+1]); math.Abs(amp-2) > 0.02 {
		t.Fatalf("amplitude %v, want ≈2", amp)
	}
}

func TestAutonomousMatchesShootingLargeMu(t *testing.T) {
	// At μ=2 the waveform is strongly non-sinusoidal; seed HB from the
	// shooting orbit and verify both methods give the same period.
	sys := &dae.VanDerPol{Mu: 2}
	sh, err := shooting.Autonomous(sys, []float64{2, 0}, 7.6,
		shooting.Options{Method: transient.Trap, PointsPerPeriod: 4096})
	if err != nil {
		t.Fatal(err)
	}
	N := 101
	sol, err := Autonomous(sys, sh.T, orbitGuess(t, sh.Orbit, sh.T, N, 2), Options{N: N, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.T-sh.T) > 2e-3*sh.T {
		t.Fatalf("HB period %v vs shooting %v", sol.T, sh.T)
	}
}

// TestAutonomousRejectsNegativeFrequency: seeded with the van der Pol
// orbit run backwards, Newton converges onto ω = −1/T, which the collocation
// equations admit; the solve must fail as stagnation.
func TestAutonomousRejectsNegativeFrequency(t *testing.T) {
	sys := &dae.VanDerPol{Mu: 1}
	sh, err := shooting.Autonomous(sys, []float64{2, 0}, 6.6,
		shooting.Options{Method: transient.Trap, PointsPerPeriod: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const N = 17
	x0 := make([][]float64, N)
	for j := range x0 {
		tt := sh.T * float64((N-j)%N) / float64(N)
		x0[j] = []float64{sh.Orbit.At(tt, 0), sh.Orbit.At(tt, 1)}
	}
	sol, err := Autonomous(sys, sh.T, x0, Options{N: N})
	if !solverr.IsKind(err, solverr.KindStagnation) {
		var T float64
		if sol != nil {
			T = sol.T
		}
		t.Fatalf("err = %v (T = %v), want stagnation", err, T)
	}
}

func TestSampleInterpolatesSolution(t *testing.T) {
	sys := &dae.LinearRC{C: 1e-6, R: 1e3, IFunc: func(t float64) float64 { return 1e-3 * math.Sin(2*math.Pi*1e3*t) }}
	sol, err := Forced(sys, 1e-3, nil, Options{N: 17})
	if err != nil {
		t.Fatal(err)
	}
	// At the collocation points Sample must reproduce the solution.
	for j := 0; j < 17; j++ {
		tau := float64(j) / 17
		if math.Abs(sol.Sample(0, tau)-sol.X[j][0]) > 1e-10 {
			t.Fatalf("Sample mismatch at %d", j)
		}
	}
}

func TestForcedBadArgs(t *testing.T) {
	sys := &dae.LinearRC{C: 1, R: 1}
	for name, call := range map[string]func() error{
		"negative period": func() error { _, err := Forced(sys, -1, nil, Options{}); return err },
		"infinite period": func() error { _, err := Forced(sys, math.Inf(1), nil, Options{}); return err },
		"guess length":    func() error { _, err := Forced(sys, 1, make([][]float64, 3), Options{N: 5}); return err },
	} {
		if err := call(); !solverr.IsKind(err, solverr.KindBadInput) {
			t.Errorf("%s: err = %v, want %v", name, err, solverr.KindBadInput)
		}
	}
}

// noOscVar is a system without an oscillation variable to phase-lock.
type noOscVar struct{ *dae.VanDerPol }

func (noOscVar) OscVar() int { return -1 }

func TestAutonomousBadArgs(t *testing.T) {
	sys := &dae.VanDerPol{Mu: 1}
	for name, call := range map[string]func() error{
		"nil guess":             func() error { _, err := Autonomous(sys, 1, nil, Options{}); return err },
		"negative period guess": func() error { _, err := Autonomous(sys, -2, cosGuess(33, 2, 1), Options{N: 33}); return err },
		"guess length":          func() error { _, err := Autonomous(sys, 2, cosGuess(5, 2, 1), Options{N: 33}); return err },
		"guess point length":    func() error { _, err := Autonomous(sys, 2, make([][]float64, 33), Options{N: 33}); return err },
		"no oscillation var":    func() error { _, err := Autonomous(noOscVar{sys}, 2, cosGuess(33, 2, 1), Options{N: 33}); return err },
	} {
		if err := call(); !solverr.IsKind(err, solverr.KindBadInput) {
			t.Errorf("%s: err = %v, want %v", name, err, solverr.KindBadInput)
		}
	}
}

// TestCanceledContext: a canceled Ctx stops both solves at their first
// Newton iteration with a typed cancellation.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{N: 33, Ctx: ctx}
	if _, err := Autonomous(&dae.VanDerPol{Mu: 1}, 2*math.Pi, cosGuess(33, 2, 1), opt); !solverr.IsKind(err, solverr.KindCanceled) {
		t.Errorf("autonomous: err = %v, want %v", err, solverr.KindCanceled)
	}
	rc := &dae.LinearRC{C: 1e-6, R: 1e3, IFunc: func(t float64) float64 { return 1e-3 * math.Sin(2*math.Pi*1e3*t) }}
	if _, err := Forced(rc, 1e-3, nil, opt); !solverr.IsKind(err, solverr.KindCanceled) {
		t.Errorf("forced: err = %v, want %v", err, solverr.KindCanceled)
	}
}

func TestOmegaConsistent(t *testing.T) {
	sys := &dae.VanDerPol{Mu: 0.1}
	sol, err := Autonomous(sys, 2*math.Pi, cosGuess(33, 2, 1), Options{N: 33})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Omega-2*math.Pi/sol.T) > 1e-12 {
		t.Fatal("Omega and T inconsistent")
	}
}
