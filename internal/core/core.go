// Package core implements the paper's contribution: the WaMPDE (Warped
// Multirate Partial Differential Equation, §4). With two time scales the
// WaMPDE reads
//
//	ω(t2)·∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂, u(t2)) = 0           (16)
//
// where x̂(t1, t2) is 1-periodic in the warped time t1 and ω(t2) is the
// unknown local frequency. Any solution, evaluated along the warped path
//
//	x(t) = x̂(φ(t), t),  φ(t) = ∫₀ᵗ ω(τ)dτ                    (17)
//
// solves the original DAE (12). A phase condition (eq. (20) or a
// time-domain equivalent) removes the t1-translation ambiguity and pins
// ω(t2); it is what prevents the unbounded phase-error growth of transient
// simulation (§5, Figure 12).
//
// Two solvers are provided:
//
//   - Envelope: initial conditions in t2, time-stepping (the paper's
//     "purely time-domain numerical techniques for both t1 and t2 axes",
//     used for the VCO experiments of §5);
//   - Quasiperiodic: periodic boundary conditions in t2 (§4.1), one large
//     Newton solve for FM-quasiperiodic steady states.
//
// The t1 axis is discretized by spectral collocation on N1 uniform points;
// because the spectral differentiation matrix is the DFT conjugation of the
// harmonic-balance jiω(t2) factor, this is exactly the truncated-Fourier
// formulation of eq. (19) expressed in sample space. SpectralEnvelope is
// therefore not a third solver but a view of Envelope at N1 = 2M+1 that
// reports harmonic coefficients.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fourier"
	"repro/internal/solverr"
)

// PhaseKind selects the phase condition that removes the t1-translation
// invariance of the WaMPDE (§4, eq. (20) and footnote 3).
type PhaseKind int

const (
	// PhaseDerivativeZero imposes ∂x̂_k/∂t1(0, t2) = 0: the oscillation
	// variable sits on a waveform extremum at t1 = 0 for every t2. This is
	// the time-domain phase condition used for the §5 experiments.
	PhaseDerivativeZero PhaseKind = iota
	// PhaseFixValue imposes x̂_k(0, t2) = x̂_k(0, 0): the oscillation
	// variable keeps its initial t1 = 0 value for every t2 (a time-domain
	// condition on the bivariate function itself).
	PhaseFixValue
	// PhaseSpectralImag imposes Im{X̂ₖ¹(t2)} = 0 — the paper's eq. (20)
	// with l = 1, expressed on the sample values through the DFT.
	PhaseSpectralImag
)

// String names the phase condition.
func (p PhaseKind) String() string {
	switch p {
	case PhaseDerivativeZero:
		return "derivative-zero"
	case PhaseFixValue:
		return "fix-value"
	case PhaseSpectralImag:
		return "spectral-imag"
	default:
		return fmt.Sprintf("PhaseKind(%d)", int(p))
	}
}

// phaseRow builds the (linear) phase-condition row: weights w over the N1
// samples of state k such that the condition is Σ_j w[j]·x̂_k(t1_j) − c = 0,
// with c = 0 except for PhaseFixValue (see phaseBorder).
func phaseRow(kind PhaseKind, n1 int) (w []float64, err error) {
	w = make([]float64, n1)
	switch kind {
	case PhaseDerivativeZero:
		d := fourier.DiffMatrix(n1)
		copy(w, d[:n1]) // row 0 of the differentiation matrix
	case PhaseFixValue:
		w[0] = 1
	case PhaseSpectralImag:
		// Im{(1/N)·Σ_j x_j e^{-2πij/N}} = -(1/N)·Σ_j x_j sin(2πj/N).
		for j := 0; j < n1; j++ {
			w[j] = -math.Sin(2*math.Pi*float64(j)/float64(n1)) / float64(n1)
		}
	default:
		return nil, solverr.New(solverr.KindBadInput, "core.phase", "unknown phase condition %v", kind)
	}
	return w, nil
}

// ErrNeedOscillation is returned when a solve is attempted on a system
// without an oscillation variable.
var ErrNeedOscillation = errors.New("core: system must implement dae.Autonomous (OscVar)")

// ShiftBivariate rotates a sampled bivariate slice along t1 by the given
// phase (in cycles): out_j = x̂((j/N1 + shift) mod 1) for each state, using
// trigonometric interpolation. Useful to re-align an initial condition with
// a different phase condition (e.g. move a peak-aligned orbit onto a zero
// crossing for PhaseFixValue).
func ShiftBivariate(xhat []float64, n1, n int, shift float64) []float64 {
	out := make([]float64, len(xhat))
	samples := make([]float64, n1)
	for i := 0; i < n; i++ {
		for j := 0; j < n1; j++ {
			samples[j] = xhat[j*n+i]
		}
		ip := fourier.NewInterpolator(samples)
		for j := 0; j < n1; j++ {
			out[j*n+i] = ip.Eval(float64(j)/float64(n1) + shift)
		}
	}
	return out
}

// ResampleBivariate resamples a bivariate slice from n1Old to n1New uniform
// t1 points per state by trigonometric interpolation.
func ResampleBivariate(xhat []float64, n1Old, n, n1New int) []float64 {
	out := make([]float64, n1New*n)
	samples := make([]float64, n1Old)
	for i := 0; i < n; i++ {
		for j := 0; j < n1Old; j++ {
			samples[j] = xhat[j*n+i]
		}
		ip := fourier.NewInterpolator(samples)
		for j := 0; j < n1New; j++ {
			out[j*n+i] = ip.Eval(float64(j) / float64(n1New))
		}
	}
	return out
}
