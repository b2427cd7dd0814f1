package core

import (
	"repro/internal/dae"
	"repro/internal/solverr"
)

// This file is the forced (unwarped-MPDE) entry to the multi-time solvers,
// where the source (a PWM clock, a fast carrier) sets the fast period:
// there is nothing to warp, so every grid line's border pins ω instead of
// imposing a phase condition. Everything else is the autonomous machinery.

// lineInputs fills one grid line's input slots at slow time t2: one slot
// shared by the line's points from sys.Input, or — given the bivariate
// input2 of a forced solve — one slot per point at its fast phase j/n1.
type lineInputs struct {
	sys    dae.System
	input2 func(tau, t2 float64, u []float64)
}

// fill writes line l's slots of us (a grid's input layout) at slow time t2.
func (in lineInputs) fill(us []float64, n1, l int, t2 float64) {
	nIn := in.sys.NumInputs()
	if in.input2 == nil {
		in.sys.Input(t2, us[l*nIn:(l+1)*nIn])
		return
	}
	for j := 0; j < n1; j++ {
		p := l*n1 + j
		in.input2(float64(j)/float64(n1), t2, us[p*nIn:(p+1)*nIn])
	}
}

// ForcedEnvelope integrates the unwarped MPDE
//
//	ωPin·∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂, u(t1, t2)) = 0
//
// in t2 from the initial bivariate waveform xhat0 (N1·n samples) over
// t2 ∈ [0, t2End], with the fast frequency pinned at omega (Hz — the
// fast variable is normalized phase, one unit per fast period, matching
// Envelope's ω convention). input2, when non-nil, supplies the bivariate
// inputs: input2(tau, t2, u) fills the input vector at normalized fast
// phase tau ∈ [0,1) and slow time t2 — this is how a PWM source's
// switching edges land on the t1 grid while its duty ratio tracks t2. A
// nil input2 evaluates sys.Input(t2) as slow-only, shared by every
// collocation point.
//
// The result's Omega track is constant at omega and Phi integrates to
// omega·t2; they are kept so EnvelopeResult consumers (resampling,
// serving) work unchanged.
func ForcedEnvelope(sys dae.System, input2 func(tau, t2 float64, u []float64), xhat0 []float64, omega, t2End float64, opt EnvelopeOptions) (*EnvelopeResult, error) {
	if err := solverr.CheckPositive("core.forced", "omega", omega); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	n := sys.Dim()
	if err := checkEnvelopeArgs(n, xhat0, omega, t2End, opt); err != nil {
		return nil, err
	}
	return envelope(sys, pinnedBorder(opt.N1, n, omega), lineInputs{sys, input2}, xhat0, omega, t2End, opt)
}

// ForcedQuasiperiodic solves the unwarped MPDE of ForcedEnvelope with
// periodic boundary conditions on both axes: x̂ is (1, T2)-periodic, with
// the fast frequency pinned at omega on every t2 line. input2 is as in
// ForcedEnvelope, evaluated at slow times t2 = T2·j2/N2 (nil: sys.Input at
// those times, shared along each line). x0, when non-nil, is the initial
// iterate laid out [N2][N1][n] like QPResult.X; nil starts from zero. The
// result's Omega is constant at omega.
func ForcedQuasiperiodic(sys dae.System, input2 func(tau, t2 float64, u []float64), x0 [][][]float64, omega, t2Period float64, opt QPOptions) (*QPResult, error) {
	const stage = "core.forced"
	if err := solverr.CheckPositive(stage, "omega", omega); err != nil {
		return nil, err
	}
	if err := solverr.CheckPositive(stage, "T2", t2Period); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	n := sys.Dim()
	omegas := make([]float64, opt.N2)
	for j2 := range omegas {
		omegas[j2] = omega
	}
	if x0 != nil {
		if err := checkGuess(stage, x0, omegas, opt.N1, opt.N2, n); err != nil {
			return nil, err
		}
	}
	return quasiperiodic(sys, pinnedBorder(opt.N1, n, omega), lineInputs{sys, input2}, x0, omegas, t2Period, opt)
}
