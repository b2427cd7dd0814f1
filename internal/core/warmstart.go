package core

import (
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/solverr"
)

// WarmStart carries solver state from one solved parameter point to a
// neighboring one in a continuation-ordered sweep (Bittner/Brachtendorf's
// optimal-frequency-sweep observation: along a tuning curve the limit cycle,
// the step Jacobian and the Krylov deflation space all drift slowly, so the
// previous point's converged state is an excellent start for the next).
//
// The carrier is advisory on every path: a consumer first checks that a
// payload is compatible (dimension, grid, finiteness) and falls back to the
// cold start when it is not or when the warm attempt fails supervision — the
// fallback is counted so sweep drivers can report it in per-point metadata.
// Consumers also refresh the carrier with their own converged state, so a
// sweep driver only threads one *WarmStart through the chain.
//
// A WarmStart is not safe for concurrent use; each sweep lane owns one.
type WarmStart struct {
	// Param/Label record the sweep coordinate the payloads were harvested at
	// (a control voltage, a corner name); drivers use them for diagnostics
	// and distance-based invalidation.
	Param float64
	Label string

	// Periodic orbit: a state X0 on the limit cycle and the period T, the
	// shooting product InitialCondition can restart from without the settling
	// transient.
	X0 []float64
	T  float64

	// Envelope initial condition: the bivariate waveform (N1·n samples) and
	// local frequency at the end of the donor run.
	XHat  []float64
	Omega float64
	N1    int

	// Rec carries the GMRESDR deflation space. It is adopted via
	// krylov.Recycler.Handoff, which drops Trusted so the stale space runs
	// under true-residual verification on the new operator.
	Rec *krylov.Recycler

	// env is the opaque envelope continuation payload (chord LU factors,
	// harmonic preconditioner); see envCarry.
	env *envCarry

	// Uses counts successful warm adoptions; Fallbacks counts warm attempts
	// that failed supervision and fell back to the cold path. Sweep drivers
	// read the per-point deltas for metadata.
	Uses      int
	Fallbacks int
}

// HasOrbit reports whether the carrier holds a finite periodic orbit of the
// given state dimension.
func (w *WarmStart) HasOrbit(dim int) bool {
	if w == nil || len(w.X0) != dim || !(w.T > 0) {
		return false
	}
	return solverr.CheckFinite("core.warmstart", w.X0) == nil
}

// HasEnvelopeIC reports whether the carrier holds a finite bivariate
// waveform on an n1-point grid for a dim-state system.
func (w *WarmStart) HasEnvelopeIC(n1, dim int) bool {
	if w == nil || w.N1 != n1 || len(w.XHat) != n1*dim || !(w.Omega > 0) {
		return false
	}
	return solverr.CheckFinite("core.warmstart", w.XHat) == nil
}

// SetOrbit stores a periodic orbit (copied) in the carrier.
func (w *WarmStart) SetOrbit(x0 []float64, t float64) {
	if w == nil {
		return
	}
	w.X0 = append(w.X0[:0:0], x0...)
	w.T = t
}

// SetEnvelopeIC stores a bivariate waveform and frequency (copied) in the
// carrier.
func (w *WarmStart) SetEnvelopeIC(xhat []float64, omega float64, n1 int) {
	if w == nil {
		return
	}
	w.XHat = append(w.XHat[:0:0], xhat...)
	w.Omega = omega
	w.N1 = n1
}

// envCarry is the envelope solver's cross-solve continuation payload. It is
// deliberately opaque to drivers: the invariants that make it safe to reuse
// (which linear path the factors belong to, which ω and step the chord LU
// was factored at) are enforced by takeEnv and the adopting assembler, not
// by the carrier's consumer.
//
// Dense-LU mode carries the chord factorization and its newton.ReuseState;
// matrix-free mode carries the harmonic preconditioner (the chord state
// references the dead assembler's ladder and is dropped). Either way the adopting
// assembler takes ownership and mutates the factors in place, which is why
// takeEnv pops the payload instead of sharing it.
type envCarry struct {
	n1, n  int
	linear LinearKind

	lu                              *la.LU
	reuse                           newton.ReuseState
	lastH, lastTheta, omegaAtFactor float64

	prec                        *harmonicPrec
	precH, precTheta, precOmega float64
}

// takeEnv pops the envelope carry when it is compatible with the adopting
// solve (same grid, dimension and linear path); an incompatible carry is
// silently dropped — the adopter simply starts cold.
func (w *WarmStart) takeEnv(n1, n int, linear LinearKind) *envCarry {
	if w == nil || w.env == nil {
		return nil
	}
	ec := w.env
	w.env = nil
	if ec.n1 != n1 || ec.n != n || ec.linear != linear {
		return nil
	}
	return ec
}

// harvestInto refreshes the carrier with this assembler's converged state so
// the next sweep point can adopt it: the final bivariate waveform and
// frequency as an envelope IC, the recycler's deflation space, and the
// linear-path-specific factors — the chord LU plus its Newton reuse state in
// dense mode, the harmonic preconditioner in matrix-free mode (the chord
// state would dangle into this run's dead ladder, so it is never carried on
// the iterative path).
func (a *envAssembler) harvestInto(w *WarmStart, xhat []float64, omega float64) {
	if w == nil {
		return
	}
	w.SetEnvelopeIC(xhat, omega, a.g.n1)
	w.Rec = a.lad.rec
	ec := &envCarry{
		n1:            a.g.n1,
		n:             a.g.n,
		linear:        a.opt.Linear,
		lastH:         a.lastH,
		lastTheta:     a.lastTheta,
		omegaAtFactor: a.omegaAtFactor,
	}
	if a.opt.Linear == LinearDenseLU {
		ec.lu = a.lu
		ec.reuse = a.reuse
	} else {
		ec.prec = a.prec
		ec.precH, ec.precTheta, ec.precOmega = a.precH, a.precTheta, a.precOmega
	}
	w.env = ec
}
