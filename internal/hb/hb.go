// Package hb implements harmonic balance — the frequency-domain
// steady-state prior art the paper reviews in §2 ([NV76, Haa88, GS91]) —
// for forced and autonomous (unknown-frequency) systems.
//
// Harmonic balance is the paper's eq. (19) without a slow axis, so both
// solves run on core's collocation grid with one t2 line (N2 = 1, where the
// t2 derivative D2 vanishes and the slow period is immaterial): the periodic
// unknown is N uniform time samples over one period, the time derivative is
// the Fourier differentiation matrix (exactly the harmonic-balance jiω
// factor conjugated into sample space), and the nonlinear devices are
// evaluated at the samples (the standard pseudo-spectral/"piecewise
// harmonic balance" formulation). A forced solve pins the frequency at 1/T;
// an autonomous one leaves it free under the derivative-zero phase
// condition. Newton's first attempt is undamped; core's rescue ladder
// supplies damping when it fails.
package hb

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/dae"
	"repro/internal/fourier"
	"repro/internal/newton"
	"repro/internal/solverr"
)

// Options tunes a harmonic-balance solve.
type Options struct {
	N       int // samples per period (odd recommended), default 33
	MaxIter int // Newton cap of the first attempt, default 60
	// Ctx, when non-nil, makes the solve cancelable: it is checked once per
	// Newton iteration, and cancellation returns a solverr.KindCanceled
	// error.
	Ctx context.Context
}

// grid returns the one-line collocation grid's options.
func (o Options) grid() core.QPOptions {
	if o.N <= 0 {
		o.N = 33
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 60
	}
	return core.QPOptions{N1: o.N, N2: 1, Newton: newton.Options{MaxIter: o.MaxIter}, Ctx: o.Ctx}
}

// Solution is a periodic steady state in sampled form: X[j][i] is state i at
// sample j of the period, with t_j = j·T/N.
type Solution struct {
	X     [][]float64
	T     float64 // period
	Omega float64 // angular frequency 2π/T
}

// Sample returns state component i trigonometrically interpolated at
// normalized phase τ∈[0,1) of the period.
func (s *Solution) Sample(i int, tau float64) float64 {
	return fourier.Interpolate(s.column(i), tau)
}

// Harmonics returns the signed-harmonic Fourier coefficients of state i
// (see fourier.Coefficients).
func (s *Solution) Harmonics(i int) []complex128 {
	return fourier.Coefficients(s.column(i))
}

func (s *Solution) column(i int) []float64 {
	samples := make([]float64, len(s.X))
	for j := range s.X {
		samples[j] = s.X[j][i]
	}
	return samples
}

// Forced solves the T-periodic steady state of a forced system. x0, if
// non-nil, provides the initial guess as N samples (x0[j] is the state at
// sample j); nil starts from zero. A T whose frequency 1/T is not positive
// and finite fails as KindBadInput.
func Forced(sys dae.System, T float64, x0 [][]float64, opt Options) (*Solution, error) {
	var guess [][][]float64
	if x0 != nil {
		guess = [][][]float64{x0}
	}
	input := func(tau, _ float64, u []float64) { sys.Input(tau*T, u) }
	res, err := core.ForcedQuasiperiodic(sys, input, guess, 1/T, 1, opt.grid())
	if err != nil {
		return nil, solverr.Wrap(solverr.KindOf(err), "hb.forced", err)
	}
	return solution(res), nil
}

// Autonomous solves the unknown-period steady state of an oscillator with
// inputs frozen at t = 0. x0 provides the N-sample initial guess (required:
// the trivial equilibrium is always a solution, so the guess must be off
// it); T0 is the period guess, and a T0 whose 1/T0 is not positive and
// finite fails as KindBadInput. The phase condition fixes dx_k/dτ(0) = 0 for
// k = sys.OscVar(). A solve that converges onto a non-positive frequency
// fails as KindStagnation.
func Autonomous(sys dae.Autonomous, T0 float64, x0 [][]float64, opt Options) (*Solution, error) {
	const stage = "hb.autonomous"
	if x0 == nil {
		return nil, solverr.New(solverr.KindBadInput, stage, "autonomous solve needs a nontrivial initial guess")
	}
	guess := &core.QPGuess{X: [][][]float64{x0}, Omega: []float64{1 / T0}}
	res, err := core.Quasiperiodic(sys, 1, guess, opt.grid())
	if err != nil {
		return nil, solverr.Wrap(solverr.KindOf(err), stage, err)
	}
	if w := res.Omega[0]; w <= 0 {
		return nil, solverr.New(solverr.KindStagnation, stage, "converged to a non-positive frequency (%g)", w)
	}
	return solution(res), nil
}

// solution unpacks the one-line grid: its ω is the frequency 1/T.
func solution(res *core.QPResult) *Solution {
	T := 1 / res.Omega[0]
	return &Solution{X: res.X[0], T: T, Omega: 2 * math.Pi / T}
}
