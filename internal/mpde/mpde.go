// Package mpde implements the (unwarped) Multirate Partial Differential
// Equation of [BWLBG96, Roy97, Roy99] — the prior art the WaMPDE
// generalizes (§2–§3). For a non-autonomous system with two widely
// separated input rates, the MPDE
//
//	∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) = b̂(t1, t2)
//
// is solved with doubly periodic boundary conditions by spectral
// collocation on an N1×N2 grid, yielding the compact bivariate forms of
// Figures 1–3. The univariate solution is recovered along the sawtooth
// characteristic x(t) = x̂(t mod T1, t mod T2).
//
// The package deliberately has no warped time scale and no frequency
// unknown: applied to FM problems it exhibits exactly the representation
// blow-up of Figure 5, which is the motivation for the WaMPDE in
// internal/core.
package mpde

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dae"
	"repro/internal/newton"
	"repro/internal/solverr"
)

// System is a DAE whose inputs live on the two-time torus: Input2 evaluates
// the input waveforms at bivariate time (t1, t2).
type System interface {
	dae.System
	// Input2 evaluates the inputs at fast time t1 and slow time t2.
	// Consistency requires Input(t) == Input2(t, t).
	Input2(t1, t2 float64, u []float64)
}

// Options tunes the quasiperiodic MPDE solve.
type Options struct {
	N1, N2  int // grid sizes (defaults 15×15, the paper's Figure 2 grid)
	MaxIter int // Newton cap, default 60
	// Tol bounds the row-scaled residual, as in internal/core: each
	// collocation row is divided by its size at the initial guess, so the
	// tolerance is relative. Default 1e-9.
	Tol     float64
	Damping bool
}

func (o Options) withDefaults() Options {
	if o.N1 <= 0 {
		o.N1 = 15
	}
	if o.N2 <= 0 {
		o.N2 = 15
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 60
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// Solution is the bivariate steady state on the N1×N2 grid:
// X[j2][j1] is the state vector at (t1, t2) = (j1·T1/N1, j2·T2/N2).
type Solution struct {
	T1, T2 float64
	X      [][][]float64
}

// N1 returns the fast-axis grid size.
func (s *Solution) N1() int { return len(s.X[0]) }

// N2 returns the slow-axis grid size.
func (s *Solution) N2() int { return len(s.X) }

// Eval returns state component i at (t1, t2) by trigonometric interpolation
// along t1 and linear (periodic) interpolation along t2: core.QPResult's
// evaluation, with t1 normalized to one fast period.
func (s *Solution) Eval(i int, t1, t2 float64) float64 {
	r := core.QPResult{N1: s.N1(), N2: s.N2(), T2: s.T2, X: s.X}
	return r.Eval(i, t1/s.T1, t2)
}

// Univariate reconstructs the one-dimensional solution along the sawtooth
// characteristic: x_i(t) = x̂_i(t mod T1, t mod T2).
func (s *Solution) Univariate(i int, t float64) float64 {
	return s.Eval(i, math.Mod(t, s.T1), math.Mod(t, s.T2))
}

// Quasiperiodic solves the MPDE with (T1, T2)-periodic boundary conditions.
// x0, if non-nil, provides the initial guess on the same grid layout as
// Solution.X. It is the periodic collocation grid of internal/core with the
// fast frequency pinned at 1/T1 (core.ForcedQuasiperiodic): the fast axis
// is normalized phase, and Input2 is sampled at each grid point.
func Quasiperiodic(sys System, t1p, t2p float64, x0 [][][]float64, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	if !(t1p > 0) || math.IsInf(t1p, 1) {
		return nil, solverr.New(solverr.KindBadInput, "mpde.quasi", "T1 must be positive and finite, got %v", t1p)
	}
	input2 := func(tau, t2 float64, u []float64) { sys.Input2(tau*t1p, t2, u) }
	qopt := core.QPOptions{N1: opt.N1, N2: opt.N2, Newton: newton.Options{MaxIter: opt.MaxIter, TolF: opt.Tol, Damping: opt.Damping}}
	res, err := core.ForcedQuasiperiodic(sys, input2, x0, 1/t1p, t2p, qopt)
	if err != nil {
		return nil, fmt.Errorf("mpde: quasiperiodic solve: %w", err)
	}
	return &Solution{T1: t1p, T2: t2p, X: res.X}, nil
}

// TwoTone adapts a dae.System whose input waveforms factor into fast and
// slow parts: input k is fast[k](t1)·slow[k](t2) (either may be nil for 1).
type TwoTone struct {
	dae.System
	Fast []func(t float64) float64
	Slow []func(t float64) float64
}

// Input2 implements System.
func (s *TwoTone) Input2(t1, t2 float64, u []float64) {
	for k := range u {
		v := 1.0
		if s.Fast != nil && s.Fast[k] != nil {
			v *= s.Fast[k](t1)
		}
		if s.Slow != nil && s.Slow[k] != nil {
			v *= s.Slow[k](t2)
		}
		u[k] = v
	}
}

// Input implements dae.System consistently with Input2.
func (s *TwoTone) Input(t float64, u []float64) { s.Input2(t, t, u) }
