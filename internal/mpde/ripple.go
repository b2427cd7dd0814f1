package mpde

import (
	"repro/internal/core"
	"repro/internal/solverr"
)

// RippleOptions is the converter envelope preset: h2Periods switching
// periods per t2 step with trapezoidal integration and cross-step chord
// reuse. ChordNewton matters doubly here: converters drive the same
// collocation Jacobian every step (duty and fsw fixed per request), so
// carried factors stay exact — measured on the catalog buck start-up it is
// ~8x faster than per-step refactorization and converges more cleanly (the
// rescue-heavy non-chord path leaves visibly damped ripple).
func RippleOptions(n1 int, fsw, h2Periods float64) core.EnvelopeOptions {
	return core.EnvelopeOptions{N1: n1, H2: h2Periods / fsw, Trap: true, ChordNewton: true}
}

// RippleEnvelope is the MPDE ripple-envelope solve path for driven
// switching circuits (switch-mode power converters): it integrates the
// unwarped MPDE
//
//	fsw·∂q(x̂)/∂τ + ∂q(x̂)/∂t2 + f(x̂, u(τ/fsw, t2)) = 0
//
// in slow time t2 from the initial bivariate waveform xhat0 (N1·n samples;
// all zeros for a start-up envelope), with the fast scale pinned to one
// switching period (τ is normalized phase, τ/fsw is fast time in seconds
// as sys.Input2 expects). The t1 basis carries the non-smooth switching
// ripple, the t2 grid the start-up/load envelope.
//
// This is the unwarped-MPDE corner of the envelope machinery: there is no
// frequency unknown and no phase condition — the PWM input pins the fast
// phase — so core runs with ω fixed at fsw, exercising the same envelope
// assembly, supervision ladder and matrix-free operator as the autonomous
// WaMPDE path. The univariate solution is recovered along the
// characteristic x(t) ≈ x̂(fsw·t mod 1, t).
func RippleEnvelope(sys System, xhat0 []float64, fsw, t2End float64, opt core.EnvelopeOptions) (*core.EnvelopeResult, error) {
	if fsw <= 0 {
		return nil, solverr.New(solverr.KindBadInput, "mpde.ripple", "fsw must be positive")
	}
	input2 := func(tau, t2 float64, u []float64) { sys.Input2(tau/fsw, t2, u) }
	return core.ForcedEnvelope(sys, input2, xhat0, fsw, t2End, opt)
}
