package core

import (
	"math"
	"math/cmplx"

	"repro/internal/dae"
	"repro/internal/fourier"
	"repro/internal/newton"
	"repro/internal/solverr"
)

// This file presents the paper's §4 formulation literally: equations
// (19)–(20) with the harmonic coefficients X̂_i(t2) as the unknowns — the
// "mixed frequency-time method" of footnote 4. With N1 = 2M+1 collocation
// points the t1 grid has exactly the degrees of freedom of the truncated
// Fourier series (18), and the spectral differentiation matrix is the DFT
// conjugation of the j2πhω factor, so eq. (19) is the DFT of the
// collocation step equation and eq. (20) with l = 1 is PhaseSpectralImag.
// SpectralEnvelope is therefore a view of Envelope: it solves on the grid
// and reports each level's samples as harmonic coefficients.

// SpectralOptions configures the frequency-domain envelope solver.
type SpectralOptions struct {
	M      int     // harmonics; N0 = 2M+1 unknowns per state (default 12)
	H2     float64 // t2 step (required)
	Trap   bool    // trapezoidal t2 integration
	Newton newton.Options
}

// SpectralResult is a frequency-domain envelope run: the harmonic
// coefficients X̂(t2) of each state and the local frequency.
type SpectralResult struct {
	M, N  int // harmonics and state dimension
	T2    []float64
	Coeff [][]complex128 // Coeff[k][(h+M)*n+i]: harmonic h of state i
	Omega []float64
	Phi   []float64

	NewtonIterTotal int
}

// Harmonic returns the coefficient of harmonic h (−M..M) of state i at t2
// index k.
func (r *SpectralResult) Harmonic(k, i, h int) complex128 {
	return r.Coeff[k][(h+r.M)*r.N+i]
}

// Waveform reconstructs the t1 waveform of state i at t2 index k on nPts
// uniform warped-time samples.
func (r *SpectralResult) Waveform(k, i, nPts int) []float64 {
	out := make([]float64, nPts)
	for p := 0; p < nPts; p++ {
		tau := float64(p) / float64(nPts)
		s := complex(0, 0)
		for h := -r.M; h <= r.M; h++ {
			c := r.Harmonic(k, i, h)
			ang := 2 * math.Pi * float64(h) * tau
			s += c * complex(math.Cos(ang), math.Sin(ang))
		}
		out[p] = real(s)
	}
	return out
}

// OmegaSeries returns copies of the t2 grid and ω(t2).
func (r *SpectralResult) OmegaSeries() ([]float64, []float64) {
	return append([]float64(nil), r.T2...), append([]float64(nil), r.Omega...)
}

// SpectralEnvelope integrates the WaMPDE in t2 in the frequency domain of
// t1. xhat0 is the initial bivariate waveform given as N1 uniform t1
// samples per state (the same layout Envelope uses, N1 = 2M+1 required);
// omega0 the initial frequency. The phase condition is eq. (20) with l = 1:
// Im{X̂_k¹(t2)} = 0 for k = sys.OscVar(). The initial waveform is first
// shifted along t1 onto that condition with Re X̂_k¹ > 0; on error the
// levels solved so far are returned with it.
func SpectralEnvelope(sys dae.Autonomous, xhat0 []float64, omega0, t2End float64, opt SpectralOptions) (*SpectralResult, error) {
	if opt.M <= 0 {
		opt.M = 12
	}
	n, n1 := sys.Dim(), 2*opt.M+1
	if len(xhat0) != n1*n {
		return nil, solverr.New(solverr.KindBadInput, "core.spectral",
			"spectral IC needs N1=2M+1=%d samples per state, got %d", n1, len(xhat0)/n)
	}
	bord, err := phaseBorder(sys, PhaseSpectralImag, n1, xhat0)
	if err != nil {
		return nil, err
	}
	c1 := spectralCoeff(xhat0, opt.M, n)[(1+opt.M)*n+bord.k]
	xhat0 = ShiftBivariate(xhat0, n1, n, -cmplx.Phase(c1)/(2*math.Pi))
	env, err := Envelope(sys, xhat0, omega0, t2End, EnvelopeOptions{
		N1: n1, H2: opt.H2, Trap: opt.Trap, Phase: PhaseSpectralImag, Newton: opt.Newton,
	})
	if env == nil {
		return nil, err
	}
	res := &SpectralResult{M: opt.M, N: n, T2: env.T2, Omega: env.Omega, Phi: env.Phi,
		NewtonIterTotal: env.NewtonIterTotal}
	for _, x := range env.X {
		res.Coeff = append(res.Coeff, spectralCoeff(x, opt.M, n))
	}
	return res, err
}

// spectralCoeff transforms one level's samples (x[j*n+i], N1 = 2M+1 per
// state) into its signed-harmonic coefficients, laid out as Coeff.
func spectralCoeff(x []float64, m, n int) []complex128 {
	out := make([]complex128, (2*m+1)*n)
	samples := make([]float64, 2*m+1)
	for i := 0; i < n; i++ {
		for j := range samples {
			samples[j] = x[j*n+i]
		}
		for b, c := range fourier.Coefficients(samples) {
			out[b*n+i] = c
		}
	}
	return out
}
