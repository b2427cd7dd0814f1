package core

import (
	"math"
	"testing"

	"repro/internal/dae"
	"repro/internal/fourier"
	"repro/internal/shooting"
	"repro/internal/solverr"
	"repro/internal/transient"
)

// TestQuasiperiodicRejectsNegativeOmega: the van der Pol orbit run
// backwards solves the collocation equations with ω = −1/T, because the
// phase condition does not fix the sign of the frequency. Seeded with the
// reversed samples and ω = +1/T on every line, Newton converges there; the
// solve must fail as stagnation instead of returning that ω.
func TestQuasiperiodicRejectsNegativeOmega(t *testing.T) {
	sys := &dae.VanDerPol{Mu: 1}
	pss, err := shooting.Autonomous(sys, []float64{2, 0}, 6.6,
		shooting.Options{Method: transient.Trap, PointsPerPeriod: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n1, n2 = 17, 3
	reversed := make([][]float64, n1)
	for j := range reversed {
		tt := pss.T * float64((n1-j)%n1) / float64(n1)
		reversed[j] = []float64{pss.Orbit.At(tt, 0), pss.Orbit.At(tt, 1)}
	}
	guess := &QPGuess{X: make([][][]float64, n2), Omega: make([]float64, n2)}
	for l := range guess.X {
		guess.X[l], guess.Omega[l] = reversed, 1/pss.T
	}
	res, err := Quasiperiodic(sys, 10, guess, QPOptions{N1: n1, N2: n2})
	if !solverr.IsKind(err, solverr.KindStagnation) {
		var omega []float64
		if res != nil {
			omega = res.Omega
		}
		t.Fatalf("err = %v (ω = %v), want stagnation", err, omega)
	}
	if res != nil {
		t.Fatal("a failed solve must not return a result")
	}
}

// TestGuessFromEnvelopeEndTolerance: an envelope asked for exactly one slow
// period may stop up to t2EndTol of that period short of it (Envelope's end
// tolerance). GuessFromEnvelope must accept that run, starting its window at
// the run's first point, and still reject a run short by more.
func TestGuessFromEnvelopeEndTolerance(t *testing.T) {
	res := &EnvelopeResult{
		N1: 3, N: 1,
		T2:    []float64{0, 0.5, 1},
		X:     [][]float64{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}},
		Omega: []float64{1, 1.5, 2},
		Phi:   []float64{0, 0.625, 1.5},
	}
	g, err := GuessFromEnvelope(res, 1+t2EndTol/2, 3, 2)
	if err != nil {
		t.Fatalf("run short by t2EndTol/2 of the period: %v", err)
	}
	if g.Omega[0] != res.Omega[0] {
		t.Fatalf("window does not start at the run's first point: ω %v", g.Omega)
	}
	_, err = GuessFromEnvelope(res, 1+2*t2EndTol, 3, 2)
	if solverr.KindOf(err) != solverr.KindBadInput {
		t.Fatalf("run short by 2·t2EndTol of the period: err %v, want bad input", err)
	}
}

func TestQPSpectrumIsTwoToneGrid(t *testing.T) {
	// Eq. (24): the quasiperiodic solution's spectrum consists of lines at
	// i·ω0 + k·ω2. Fit the reconstructed waveform with the APFT on that
	// grid and check almost nothing is left over.
	T2 := 80.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 15)
	env, err := Envelope(sys, xhat0, omega0, 3*T2, EnvelopeOptions{N1: 15, H2: T2 / 150, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	guess, err := GuessFromEnvelope(env, T2, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := Quasiperiodic(sys, T2, guess, QPOptions{N1: 15, N2: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Sample the reconstruction over several slow periods.
	nS := 6000
	ts := make([]float64, nS)
	ys := make([]float64, nS)
	for i := range ts {
		ts[i] = 4 * T2 * float64(i) / float64(nS)
		ys[i] = qp.At(0, ts[i])
	}
	f0 := qp.OmegaMean() // carrier line
	f2 := 1 / T2         // slow line
	grid := fourier.TwoToneGrid(f0, f2, 3, 25)
	ap := fourier.NewAPFT(grid)
	if err := ap.Fit(ts, ys); err != nil {
		t.Fatal(err)
	}
	// The two-tone grid should capture nearly all signal energy.
	total := 0.0
	for _, v := range ys {
		total += v * v
	}
	rms := math.Sqrt(total / float64(nS))
	if resid := ap.Residual(ts, ys); resid > 0.06*rms {
		t.Fatalf("APFT residual %v vs signal RMS %v — spectrum not on the i·ω0+k·ω2 grid", resid, rms)
	}
	// The carrier (i=1, k=0) line must dominate.
	carrier := 0.0
	for j, f := range grid {
		if math.Abs(f-f0) < 1e-9*f0 {
			carrier = ap.Amplitude(j)
		}
	}
	if carrier < 0.5*rms {
		t.Fatalf("carrier line amplitude %v too small vs RMS %v", carrier, rms)
	}
}
