package core

import (
	"math"

	"repro/internal/dae"
	"repro/internal/shooting"
	"repro/internal/solverr"
	"repro/internal/transient"
)

// ICOptions configures the computation of the WaMPDE's natural initial
// condition — the periodic steady state of the unforced oscillator (§4.1:
// "a natural initial condition is the solution of (12) with no forcing").
type ICOptions struct {
	N1       int              // t1 samples to produce, default 25
	Shooting shooting.Options // its Ctx also cancels the settling transient
	// SettleCycles runs a transient for this many periods before shooting,
	// to land the guess near the limit cycle (default 20).
	SettleCycles int
	// Warm, when non-nil, is the sweep continuation carrier. When it holds a
	// finite orbit of the right dimension, the settling transient is skipped
	// and shooting starts directly from the carried orbit — the neighboring
	// parameter point's limit cycle, which for a small parameter step is
	// already inside shooting's convergence basin. If that warm shooting
	// fails supervision, the full cold preamble runs instead and the
	// fallback is counted on the carrier. On success (either path) the
	// carrier is refreshed with this point's orbit, so a sweep driver only
	// threads one carrier down the chain.
	Warm *WarmStart
}

// InitialCondition computes (x̂(·,0), ω(0)) for Envelope: it lands on the
// limit cycle with LimitCycle and samples one period onto the N1-point
// warped-time grid, rotated so the oscillation variable peaks at t1 = 0
// (making PhaseDerivativeZero hold at the start).
//
// xGuess seeds the settling transient (it must be off the unstable
// equilibrium); TGuess estimates the period.
func InitialCondition(sys dae.Autonomous, xGuess []float64, TGuess float64, opt ICOptions) (xhat0 []float64, omega0 float64, err error) {
	if opt.N1 <= 0 {
		opt.N1 = 25
	}
	pss, err := LimitCycle(sys, xGuess, TGuess, opt)
	if err != nil {
		return nil, 0, err
	}
	n, k := sys.Dim(), sys.OscVar()
	// Locate the peak of the oscillation variable over the orbit.
	tPeak := orbitPeak(pss.Orbit, k, pss.T)
	// Sample one period, shifted so the peak lands at t1 = 0.
	n1 := opt.N1
	xhat0 = make([]float64, n1*n)
	for j := 0; j < n1; j++ {
		tt := math.Mod(tPeak+pss.T*float64(j)/float64(n1), pss.T)
		for i := 0; i < n; i++ {
			xhat0[j*n+i] = pss.Orbit.At(tt, i)
		}
	}
	return xhat0, 1 / pss.T, nil
}

// LimitCycle is the settle-and-shoot step of InitialCondition: it settles
// onto the limit cycle by a trapezoidal transient of the system with inputs
// frozen at t = 0, then sharpens the orbit with autonomous trapezoidal
// shooting. A warm carrier with an orbit replaces the settle (see
// ICOptions.Warm) and is refreshed with the result. opt.N1 is not used.
func LimitCycle(sys dae.Autonomous, xGuess []float64, TGuess float64, opt ICOptions) (*shooting.PSS, error) {
	if opt.SettleCycles <= 0 {
		opt.SettleCycles = 20
	}
	if opt.Shooting.Method != transient.Trap {
		opt.Shooting.Method = transient.Trap
	}
	n := sys.Dim()
	if len(xGuess) != n {
		return nil, solverr.New(solverr.KindBadInput, "core.ic", "len(xGuess)=%d, want %d", len(xGuess), n)
	}
	if err := solverr.CheckPositive("core.ic", "TGuess", TGuess); err != nil {
		return nil, err
	}
	var pss *shooting.PSS
	if opt.Warm.HasOrbit(n) {
		// Warm continuation: shoot straight from the carried neighbor orbit.
		p, werr := shooting.Autonomous(sys, opt.Warm.X0, opt.Warm.T, opt.Shooting)
		switch {
		case werr == nil:
			opt.Warm.Uses++
			pss = p
		case solverr.IsKind(werr, solverr.KindCanceled):
			return nil, werr
		default:
			// Supervision failed on the carried state: fall back to the cold
			// preamble below and record it.
			opt.Warm.Fallbacks++
		}
	}
	if pss == nil {
		settle, err := transient.Simulate(shooting.Freeze(sys, 0), xGuess, 0, float64(opt.SettleCycles)*TGuess,
			transient.Options{Method: transient.Trap, H: TGuess / 128, Ctx: opt.Shooting.Ctx})
		if err != nil {
			return nil, solverr.Wrap(solverr.KindOf(err), "core.ic", err).WithMsg("settling transient failed")
		}
		pss, err = shooting.Autonomous(sys, settle.X[len(settle.X)-1], TGuess, opt.Shooting)
		if err != nil {
			return nil, err
		}
	}
	opt.Warm.SetOrbit(pss.X0, pss.T)
	return pss, nil
}

// orbitPeak finds the time of the maximum of state k over one period,
// refined by parabolic interpolation through the neighbouring samples.
func orbitPeak(orbit *transient.Result, k int, T float64) float64 {
	best, bestV := 0, math.Inf(-1)
	for i := range orbit.T {
		if v := orbit.X[i][k]; v > bestV {
			best, bestV = i, v
		}
	}
	if best == 0 || best == len(orbit.T)-1 {
		return orbit.T[best]
	}
	t0, t1, t2 := orbit.T[best-1], orbit.T[best], orbit.T[best+1]
	y0, y1, y2 := orbit.X[best-1][k], orbit.X[best][k], orbit.X[best+1][k]
	den := (y0 - 2*y1 + y2)
	if den == 0 {
		return t1
	}
	// Uniform-spacing parabolic vertex.
	h := (t2 - t0) / 2
	return t1 + h*(y0-y2)/(2*den)
}
