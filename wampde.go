// Package wampde is a Go implementation of the WaMPDE — the Warped
// Multirate Partial Differential Equation of Narayan & Roychowdhury,
// "Multi-Time Simulation of Voltage-Controlled Oscillators" (DAC 1999) —
// together with the complete simulation stack it rests on: an MNA circuit
// simulator, transient/shooting/harmonic-balance analyses, the unwarped
// MPDE, and dense/sparse/iterative linear algebra, all on the standard
// library alone.
//
// The WaMPDE represents a forced oscillator's response as a bivariate
// waveform x̂(t1, t2) — 1-periodic in the *warped* time t1 — together with
// an explicitly computed local frequency ω(t2):
//
//	ω(t2)·∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂, u(t2)) = 0
//
// Evaluating x̂ along the warped path x(t) = x̂(∫₀ᵗω, t) solves the
// original circuit equations, with phase error bounded by a phase condition
// rather than accumulating as in transient simulation.
//
// # Quick start
//
//	sys := &wampde.SimpleVCO{ /* L, C0, G1, G3, TauM, Gamma, Ctl */ }
//	ic, w0, _ := wampde.OscillatorIC(sys, guess, Tguess, wampde.ICOptions{})
//	res, _ := wampde.RunEnvelope(sys, ic, w0, tEnd, wampde.EnvelopeOptions{H2: h2})
//	fmt.Println(res.OmegaSeries()) // the local frequency vs time
//
// See examples/ for runnable programs and cmd/ for the harnesses that
// regenerate every figure of the paper.
package wampde

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dae"
	"repro/internal/hb"
	"repro/internal/mpde"
	"repro/internal/netlist"
	"repro/internal/shooting"
	"repro/internal/solverr"
	"repro/internal/transient"
	"repro/internal/warp"
	"repro/internal/wave"
)

// System is the differential-algebraic form d/dt q(x) + f(x, u(t)) = 0 that
// every analysis in this library operates on (the paper's eq. (12)).
type System = dae.System

// Autonomous marks self-oscillating systems and names their oscillation
// variable for phase conditions.
type Autonomous = dae.Autonomous

// Ready-made DAE models.
type (
	// SimpleVCO is a compact three-state voltage-controlled oscillator.
	SimpleVCO = dae.SimpleVCO
	// VanDerPol is the classical van der Pol oscillator.
	VanDerPol = dae.VanDerPol
	// LinearLC is a (lossy) linear LC tank.
	LinearLC = dae.LinearLC
	// LinearRC is a driven RC one-pole.
	LinearRC = dae.LinearRC
)

// Circuit construction (MNA).
type (
	// Circuit is a device netlist under construction.
	Circuit = circuit.Circuit
	// CircuitSystem is a compiled circuit implementing System.
	CircuitSystem = circuit.System
	// Waveform is a scalar source waveform.
	Waveform = circuit.Waveform
	// VCO is the paper's §5 MEMS-varactor VCO.
	VCO = circuit.VCO
	// VCOParams are its component values.
	VCOParams = circuit.VCOParams
)

// NewCircuit returns an empty circuit netlist.
func NewCircuit() *Circuit { return circuit.New() }

// ParseNetlist parses the SPICE-flavoured netlist format.
func ParseNetlist(src string) (*Circuit, error) { return netlist.Parse(src) }

// NewPaperVCO builds the paper's §5 VCO: air=false gives the vacuum-cavity
// configuration of Figures 7–9, air=true the air-damped configuration of
// Figures 10–12.
func NewPaperVCO(air bool) (*VCO, error) {
	if air {
		return circuit.NewVCO(circuit.AirVCOParams())
	}
	return circuit.NewVCO(circuit.DefaultVCOParams())
}

// VCONominalFreq is the paper's §5 nominal oscillation frequency (0.75 MHz).
const VCONominalFreq = circuit.VCONominalFreq

// WaMPDE solvers (the paper's contribution).
type (
	// EnvelopeOptions configures the envelope-following WaMPDE solver.
	EnvelopeOptions = core.EnvelopeOptions
	// EnvelopeResult is a solved envelope: x̂(t1,t2), ω(t2), φ(t2).
	EnvelopeResult = core.EnvelopeResult
	// QPOptions configures the quasiperiodic WaMPDE solver.
	QPOptions = core.QPOptions
	// QPResult is a quasiperiodic WaMPDE steady state.
	QPResult = core.QPResult
	// QPGuess is the initial iterate for the quasiperiodic solver.
	QPGuess = core.QPGuess
	// ICOptions configures the oscillator initial-condition computation.
	ICOptions = core.ICOptions
	// PhaseKind selects the phase condition (eq. (20) or time-domain).
	PhaseKind = core.PhaseKind
)

// Phase conditions.
const (
	PhaseDerivativeZero = core.PhaseDerivativeZero
	PhaseFixValue       = core.PhaseFixValue
	PhaseSpectralImag   = core.PhaseSpectralImag
)

// OscillatorIC computes the WaMPDE's natural initial condition: the
// periodic steady state of the unforced oscillator, sampled on the warped-
// time grid (§4.1).
func OscillatorIC(sys Autonomous, xGuess []float64, tGuess float64, opt ICOptions) ([]float64, float64, error) {
	return core.InitialCondition(sys, xGuess, tGuess, opt)
}

// RunEnvelope integrates the WaMPDE in t2 from the given bivariate initial
// condition, producing the local frequency ω(t2) and the bivariate waveform
// (Figures 7, 8, 10, 11).
func RunEnvelope(sys Autonomous, xhat0 []float64, omega0, t2End float64, opt EnvelopeOptions) (*EnvelopeResult, error) {
	return core.Envelope(sys, xhat0, omega0, t2End, opt)
}

// RunQuasiperiodic solves the WaMPDE with periodic boundary conditions on
// both axes for FM-quasiperiodic steady states (§4.1).
func RunQuasiperiodic(sys Autonomous, t2Period float64, guess *QPGuess, opt QPOptions) (*QPResult, error) {
	return core.Quasiperiodic(sys, t2Period, guess, opt)
}

// QPGuessFromEnvelope samples the settled tail of an envelope run as the
// quasiperiodic solver's initial iterate.
func QPGuessFromEnvelope(res *EnvelopeResult, t2Period float64, n1, n2 int) (*QPGuess, error) {
	return core.GuessFromEnvelope(res, t2Period, n1, n2)
}

// Baseline analyses.
type (
	// TransientOptions configures direct numerical integration.
	TransientOptions = transient.Options
	// TransientResult is a transient waveform.
	TransientResult = transient.Result
	// ShootingOptions configures the shooting PSS solver.
	ShootingOptions = shooting.Options
	// PSS is a periodic steady state from shooting.
	PSS = shooting.PSS
	// HBOptions configures harmonic balance.
	HBOptions = hb.Options
	// HBSolution is a harmonic-balance steady state.
	HBSolution = hb.Solution
	// MPDEOptions configures the unwarped multi-time baseline.
	MPDEOptions = mpde.Options
	// MPDESolution is a bivariate MPDE steady state.
	MPDESolution = mpde.Solution
	// TwoTone adapts a System for the MPDE's bivariate inputs.
	TwoTone = mpde.TwoTone
)

// Integration methods for RunTransient.
const (
	BE   = transient.BE
	Trap = transient.Trap
	BDF2 = transient.BDF2
)

// RunTransient integrates sys by direct numerical integration — the
// conventional method the paper benchmarks against.
func RunTransient(sys System, x0 []float64, t0, t1 float64, opt TransientOptions) (*TransientResult, error) {
	return transient.Simulate(sys, x0, t0, t1, opt)
}

// DCOperatingPoint solves f(x, u(t0)) = 0 with Newton and gmin stepping.
func DCOperatingPoint(sys System, t0 float64, x []float64) error {
	return transient.DCOperatingPoint(sys, t0, x)
}

// ShootingPSS computes a forced periodic steady state by shooting.
func ShootingPSS(sys System, x0 []float64, period float64, opt ShootingOptions) (*PSS, error) {
	return shooting.Forced(sys, x0, period, opt)
}

// AutonomousPSS computes an oscillator's limit cycle and period by shooting.
func AutonomousPSS(sys Autonomous, x0 []float64, tGuess float64, opt ShootingOptions) (*PSS, error) {
	return shooting.Autonomous(sys, x0, tGuess, opt)
}

// HBForced computes a forced periodic steady state by harmonic balance.
func HBForced(sys System, period float64, guess [][]float64, opt HBOptions) (*HBSolution, error) {
	return hb.Forced(sys, period, guess, opt)
}

// HBAutonomous computes an oscillator steady state (waveform and frequency)
// by autonomous harmonic balance.
func HBAutonomous(sys Autonomous, tGuess float64, guess [][]float64, opt HBOptions) (*HBSolution, error) {
	return hb.Autonomous(sys, tGuess, guess, opt)
}

// RunMPDE solves the unwarped multi-time MPDE with doubly periodic boundary
// conditions — the §2 prior art, adequate for AM but not FM.
func RunMPDE(sys *TwoTone, t1p, t2p float64, opt MPDEOptions) (*MPDESolution, error) {
	return mpde.Quasiperiodic(sys, t1p, t2p, nil, opt)
}

// Signal analysis.
type (
	// Series is a sampled waveform.
	Series = wave.Series
	// FMSignal is the paper's §3 prototypical FM signal.
	FMSignal = warp.FMSignal
	// AMSignal is the paper's §3 two-tone AM signal.
	AMSignal = warp.AMSignal
)

// InstFrequency estimates instantaneous frequency from zero crossings.
func InstFrequency(t, y []float64) *Series { return wave.InstFrequency(t, y) }

// UnwrappedPhase returns the cumulative oscillation phase in cycles.
func UnwrappedPhase(t, y []float64) *Series { return wave.UnwrappedPhase(t, y) }

// PhaseErrorAt measures |Δphase| in cycles between two unwrapped phases —
// the Figure 12 metric.
func PhaseErrorAt(a, b *Series, t float64) float64 { return wave.PhaseErrorAt(a, b, t) }

// Frequency-domain WaMPDE (paper eq. (19)–(20), footnote 4's
// "mixed frequency-time method").
type (
	// SpectralOptions configures the harmonic-coefficient envelope solver.
	SpectralOptions = core.SpectralOptions
	// SpectralResult holds harmonic coefficients X̂(t2) and ω(t2).
	SpectralResult = core.SpectralResult
)

// RunSpectralEnvelope integrates the WaMPDE with the truncated Fourier
// series of eq. (18) as the t1 representation: the collocation envelope at
// N1 = 2M+1, whose step equation is the eq. (19) residual in sample space,
// reported as the harmonic coefficients X̂(t2).
func RunSpectralEnvelope(sys Autonomous, xhat0 []float64, omega0, t2End float64, opt SpectralOptions) (*SpectralResult, error) {
	return core.SpectralEnvelope(sys, xhat0, omega0, t2End, opt)
}

// Solver failure taxonomy (see internal/solverr and DESIGN.md, "Failure
// semantics"). Every analysis above reports failures as a *SolveError
// carrying a Kind, the failing stage, position/progress fields and the
// recovery trail the escalation ladders accumulated; the serving layer maps
// kinds to HTTP statuses and the cmd drivers map them to process exit
// codes. Use errors.As to recover the structure, or the helpers below.
type (
	// SolveError is the structured failure every solver returns.
	SolveError = solverr.Error
	// SolveErrorKind classifies a failure for dispatch.
	SolveErrorKind = solverr.Kind
)

// The failure kinds.
const (
	KindBadInput   = solverr.KindBadInput
	KindSingular   = solverr.KindSingular
	KindBreakdown  = solverr.KindBreakdown
	KindStagnation = solverr.KindStagnation
	KindNonFinite  = solverr.KindNonFinite
	KindBudget     = solverr.KindBudget
	KindCanceled   = solverr.KindCanceled
)

// SolveKindOf returns the failure kind of the outermost SolveError in err's
// chain (KindUnknown for unclassified errors).
func SolveKindOf(err error) SolveErrorKind { return solverr.KindOf(err) }

// SolveTrailOf collects the recovery trail recorded along err's chain,
// outermost supervisor first.
func SolveTrailOf(err error) []string { return solverr.TrailOf(err) }

// SolveExitCode maps an error to the per-kind process exit code the cmd
// drivers use (0 success, 2 bad input, 8 canceled, ...).
func SolveExitCode(err error) int { return solverr.ExitCode(err) }
