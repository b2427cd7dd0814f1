package core

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dae"
)

// TestSpectralStepsSatisfyEq19 checks the returned coefficients against the
// paper's eq. (19) itself. With Q̂ and F̂ evaluated pseudo-spectrally from
// them (inverse DFT to samples, device evaluation, DFT back), every step
// k−1 → k must satisfy, for h = −M..M,
//
//	(Q̂ₕ(k) − Q̂ₕ(k−1))/h₂ + θ·rhsₕ(k) + (1−θ)·rhsₕ(k−1) = 0,
//	rhsₕ = j2πhω·Q̂ₕ + F̂ₕ(u(t2)),
//
// with θ = 1 for Backward Euler and θ = 1/2 for the trapezoidal rule after
// its two Backward Euler startup steps. Each state's residual is scaled by
// the previous level's maxₕ(|Q̂ₕ|/h₂ + |rhsₕ|).
func TestSpectralStepsSatisfyEq19(t *testing.T) {
	T2 := 100.0
	sys := testVCO(T2)
	m := 10
	xhat0, omega0 := solveIC(t, sys, 2*m+1)
	for _, trap := range []bool{false, true} {
		res, err := SpectralEnvelope(sys, xhat0, omega0, T2, SpectralOptions{M: m, H2: T2 / 200, Trap: trap})
		if err != nil {
			t.Fatal(err)
		}
		n := res.N
		worst := 0.0
		qOld, rhsOld := eq19Terms(sys, res, 0)
		for k := 1; k < len(res.T2); k++ {
			h2 := res.T2[k] - res.T2[k-1]
			theta := 1.0
			if trap && k > 2 {
				theta = 0.5
			}
			q, rhs := eq19Terms(sys, res, k)
			for i := 0; i < n; i++ {
				scale, r := 0.0, 0.0
				for h := -m; h <= m; h++ {
					b := (h+m)*n + i
					scale = math.Max(scale, cmplx.Abs(qOld[b])/h2+cmplx.Abs(rhsOld[b]))
					v := (q[b]-qOld[b])/complex(h2, 0) + complex(theta, 0)*rhs[b] + complex(1-theta, 0)*rhsOld[b]
					r = math.Max(r, cmplx.Abs(v))
				}
				worst = math.Max(worst, r/scale)
			}
			qOld, rhsOld = q, rhs
		}
		t.Logf("trap=%v: worst scaled eq. (19) residual %.2e over %d steps", trap, worst, len(res.T2)-1)
		if worst > 1e-7 {
			t.Fatalf("trap=%v: eq. (19) residual %.2e, want ≤ 1e-7", trap, worst)
		}
	}
}

// eq19Terms evaluates Q̂ₕ and rhsₕ = j2πhω·Q̂ₕ + F̂ₕ at t2 index k of res
// (layout as Coeff) by direct DFTs: samples x_j = Σₕ cₕ·e^{2πihj/N},
// device evaluation at u(T2[k]), and Ŷₕ = (1/N)·Σ_j y_j·e^{−2πihj/N}.
func eq19Terms(sys *dae.SimpleVCO, res *SpectralResult, k int) (qh, rhs []complex128) {
	m, n := res.M, res.N
	nPts := 2*m + 1
	u := make([]float64, sys.NumInputs())
	sys.Input(res.T2[k], u)
	qs := make([]float64, nPts*n)
	fs := make([]float64, nPts*n)
	x := make([]float64, n)
	for j := 0; j < nPts; j++ {
		for i := 0; i < n; i++ {
			s := complex(0, 0)
			for h := -m; h <= m; h++ {
				s += res.Harmonic(k, i, h) * cmplx.Rect(1, 2*math.Pi*float64(h*j)/float64(nPts))
			}
			x[i] = real(s)
		}
		sys.Q(x, qs[j*n:(j+1)*n])
		sys.F(x, u, fs[j*n:(j+1)*n])
	}
	qh = make([]complex128, nPts*n)
	rhs = make([]complex128, nPts*n)
	for h := -m; h <= m; h++ {
		for i := 0; i < n; i++ {
			var q, f complex128
			for j := 0; j < nPts; j++ {
				e := cmplx.Rect(1/float64(nPts), -2*math.Pi*float64(h*j)/float64(nPts))
				q += complex(qs[j*n+i], 0) * e
				f += complex(fs[j*n+i], 0) * e
			}
			b := (h+m)*n + i
			qh[b] = q
			rhs[b] = complex(0, 2*math.Pi*float64(h)*res.Omega[k])*q + f
		}
	}
	return qh, rhs
}

func TestSpectralPhaseConditionHolds(t *testing.T) {
	T2 := 80.0
	sys := testVCO(T2)
	m := 10
	xhat0, omega0 := solveIC(t, sys, 2*m+1)
	res, err := SpectralEnvelope(sys, xhat0, omega0, T2/2, SpectralOptions{M: m, H2: T2 / 160})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(res.T2); k++ {
		c1 := res.Harmonic(k, 0, 1)
		if math.Abs(imag(c1)) > 1e-6*(1+cmplx.Abs(c1)) {
			t.Fatalf("phase condition Im X1 = 0 violated at step %d: %v", k, c1)
		}
	}
}

func TestSpectralConjugateSymmetry(t *testing.T) {
	T2 := 80.0
	sys := testVCO(T2)
	m := 8
	xhat0, omega0 := solveIC(t, sys, 2*m+1)
	res, err := SpectralEnvelope(sys, xhat0, omega0, T2/4, SpectralOptions{M: m, H2: T2 / 160})
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.T2) - 1
	for i := 0; i < res.N; i++ {
		for h := 1; h <= m; h++ {
			cp := res.Harmonic(last, i, h)
			cm := res.Harmonic(last, i, -h)
			if cmplx.Abs(cp-cmplx.Conj(cm)) > 1e-10*(1+cmplx.Abs(cp)) {
				t.Fatalf("conjugate symmetry broken at state %d harmonic %d", i, h)
			}
		}
		if math.Abs(imag(res.Harmonic(last, i, 0))) > 1e-12 {
			t.Fatal("DC harmonic must be real")
		}
	}
}

func TestSpectralWaveformReconstruction(t *testing.T) {
	T2 := 80.0
	sys := testVCO(T2)
	m := 10
	n1 := 2*m + 1
	xhat0, omega0 := solveIC(t, sys, n1)
	res, err := SpectralEnvelope(sys, xhat0, omega0, T2/4, SpectralOptions{M: m, H2: T2 / 160})
	if err != nil {
		t.Fatal(err)
	}
	// The reconstructed waveform at the first step should resemble the IC
	// (up to the phase rotation onto the spectral condition).
	w := res.Waveform(0, 0, 64)
	peak := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak < 1.5 || peak > 2.5 {
		t.Fatalf("waveform amplitude %v, want ≈2", peak)
	}
}

func TestSpectralFundamentalDominates(t *testing.T) {
	// The near-sinusoidal test VCO must have |c1| >> |c3| >> |c5|,
	// harmonics decaying — a physical sanity check on the spectrum.
	T2 := 80.0
	sys := testVCO(T2)
	m := 10
	xhat0, omega0 := solveIC(t, sys, 2*m+1)
	res, err := SpectralEnvelope(sys, xhat0, omega0, T2/4, SpectralOptions{M: m, H2: T2 / 160})
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.T2) - 1
	c1 := cmplx.Abs(res.Harmonic(last, 0, 1))
	c3 := cmplx.Abs(res.Harmonic(last, 0, 3))
	c5 := cmplx.Abs(res.Harmonic(last, 0, 5))
	if !(c1 > 10*c3 && c3 > c5) {
		t.Fatalf("harmonic decay violated: |c1|=%v |c3|=%v |c5|=%v", c1, c3, c5)
	}
	// Even harmonics vanish for the odd-symmetric cubic nonlinearity.
	c2 := cmplx.Abs(res.Harmonic(last, 0, 2))
	if c2 > 1e-6*c1 {
		t.Fatalf("even harmonic should vanish: |c2|=%v vs |c1|=%v", c2, c1)
	}
}

func TestSpectralBadArgs(t *testing.T) {
	sys := testVCO(10)
	x := make([]float64, 21*3)
	if _, err := SpectralEnvelope(sys, x[:5], 1, 10, SpectralOptions{M: 10, H2: 1}); err == nil {
		t.Fatal("bad IC length should fail")
	}
	if _, err := SpectralEnvelope(sys, x, 1, 10, SpectralOptions{M: 10}); err == nil {
		t.Fatal("missing H2 should fail")
	}
	if _, err := SpectralEnvelope(sys, x, -1, 10, SpectralOptions{M: 10, H2: 1}); err == nil {
		t.Fatal("bad omega0 should fail")
	}
}
