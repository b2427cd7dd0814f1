package core

import (
	"context"
	"math"

	"repro/internal/dae"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/solverr"
)

// LinearKind selects the linear solver used inside the per-step Newton
// iterations.
type LinearKind int

const (
	// LinearDenseLU assembles the dense bordered Jacobian and factors it
	// (the right default at the paper's problem sizes).
	LinearDenseLU LinearKind = iota
	// LinearMatrixFree is the paper's §1/§4 "iterative linear techniques
	// [Saa96]" path for large systems: it solves the Jacobian system with
	// GMRES applied to a matrix-free operator (core.SpectralOp), under the
	// harmonic (envelope) or line-block-Jacobi (quasiperiodic)
	// preconditioner. The spectral-differentiation term runs through the
	// cached FFT plans and the device Jacobians apply block-diagonally per
	// collocation point, so the (N1·n+1)² matrix is never formed and
	// per-iteration cost is near-linear in circuit size. The direct-rescue
	// rung of the supervision ladder assembles the same entries sparsely.
	// This is the scalable path for large circuits (N-stage rings); at the
	// paper's sizes dense LU remains faster.
	LinearMatrixFree
)

// EnvelopeOptions configures the envelope-following WaMPDE solver.
type EnvelopeOptions struct {
	N1     int        // t1 collocation points, default 25
	H2     float64    // t2 step (required)
	Trap   bool       // trapezoidal (instead of BE) t2 integration
	Phase  PhaseKind  // default PhaseDerivativeZero
	Linear LinearKind // default LinearDenseLU
	Newton newton.Options
	// ChordNewton carries the chord (modified-Newton) factorization across
	// accepted t2 steps instead of refreshing it at the start of every step:
	// the Jacobian of the step system drifts slowly along a smooth envelope,
	// so successive steps can share one LU. The factorization is dropped
	// whenever the step system changes shape — the t2 step size or integrator
	// weight changed, or ω drifted past omegaDriftTol since it was factored —
	// and mid-solve whenever the residual stops contracting at
	// ChordContraction per iteration. Off (the default), each step factors
	// exactly once and keeps the factors for that step only, the historical
	// behavior the golden suite locks in.
	ChordNewton bool
	// ChordContraction is the largest acceptable ||F_new||/||F_old|| for an
	// iteration that reused a stale factorization in ChordNewton mode; above
	// it the Jacobian is refreshed. Default 0.05 — demanding near-Newton
	// contraction keeps the extra chord iterations cheap (on the Fig. 7
	// pipeline, ~1.8x fewer factorizations for ~13% more iterations) while
	// laxer values trade further factorizations for many more iterations.
	ChordContraction float64
	// Ctx, when non-nil, makes the run cancelable: it is checked before every
	// t2 step and once per Newton iteration inside a step. On cancellation
	// Envelope returns the partial EnvelopeResult accumulated so far together
	// with a solverr.KindCanceled error (the cmd drivers expose this as
	// -timeout).
	Ctx context.Context
}

// omegaDriftTol is the relative ω drift beyond which cross-step chord
// factorizations and the reused GMRES harmonic preconditioner are rebuilt.
const omegaDriftTol = 0.02

// t2EndTol is the relative end tolerance of an envelope run: Envelope stops
// once it is within t2EndTol·t2End of t2End rather than take a last step of
// rounding-error size, and GuessFromEnvelope forgives the same shortfall.
const t2EndTol = 1e-12

func (o EnvelopeOptions) withDefaults() EnvelopeOptions {
	if o.N1 <= 0 {
		o.N1 = 25
	}
	if o.Newton.MaxIter <= 0 {
		o.Newton.MaxIter = 30
	}
	if o.Newton.TolF <= 0 {
		// Residual rows are normalized by their own scale (see stepScales),
		// so this is a relative tolerance.
		o.Newton.TolF = 1e-8
	}
	if o.ChordContraction <= 0 {
		o.ChordContraction = 0.05
	}
	// Newton damping is cheap insurance against waveform reshaping within a
	// step; the full step is still taken first when it already reduces the
	// residual.
	o.Newton.Damping = true
	// Cancellation reaches into the per-step Newton iterations so a deadline
	// does not have to wait out a slow solve.
	if o.Ctx != nil && o.Newton.Ctx == nil {
		o.Newton.Ctx = o.Ctx
	}
	return o
}

// Envelope integrates the WaMPDE (16) in t2 from the initial bivariate
// waveform xhat0 (N1·n samples, x̂(t1_j, 0)) and initial frequency omega0,
// over t2 ∈ [0, t2End]. The system must be autonomous (its OscVar picks the
// phase-condition variable k); inputs are evaluated at t2, per eq. (16)'s
// b(t2).
func Envelope(sys dae.Autonomous, xhat0 []float64, omega0, t2End float64, opt EnvelopeOptions) (*EnvelopeResult, error) {
	opt = opt.withDefaults()
	if err := checkEnvelopeArgs(sys.Dim(), xhat0, omega0, t2End, opt); err != nil {
		return nil, err
	}
	bord, err := phaseBorder(sys, opt.Phase, opt.N1, xhat0)
	if err != nil {
		return nil, err
	}
	return envelope(sys, bord, lineInputs{sys: sys}, xhat0, omega0, t2End, opt)
}

// checkEnvelopeArgs validates an envelope run's inputs before any solve.
func checkEnvelopeArgs(n int, xhat0 []float64, omega0, t2End float64, opt EnvelopeOptions) error {
	const stage = "core.envelope"
	if len(xhat0) != opt.N1*n {
		return solverr.New(solverr.KindBadInput, stage,
			"len(xhat0)=%d, want N1·n=%d", len(xhat0), opt.N1*n)
	}
	if err := solverr.CheckPositive(stage, "EnvelopeOptions.H2", opt.H2); err != nil {
		return err
	}
	if err := solverr.CheckPositive(stage, "t2End", t2End); err != nil {
		return err
	}
	if err := solverr.CheckPositive(stage, "omega0", omega0); err != nil {
		return err
	}
	return solverr.CheckFinite(stage, xhat0)
}

// envelope runs the t2 loop of Envelope and ForcedEnvelope over a one-line
// grid with the given border and inputs.
func envelope(sys dae.System, bord border, in lineInputs, xhat0 []float64, omega0, t2End float64, opt EnvelopeOptions) (*EnvelopeResult, error) {
	n1, n := opt.N1, sys.Dim()
	res := &EnvelopeResult{N1: n1, N: n}
	asm := newEnvAssembler(sys, bord, in, opt, &res.Stats)
	record := func(t2, omega float64, x []float64) {
		res.T2 = append(res.T2, t2)
		res.Omega = append(res.Omega, omega)
		res.X = append(res.X, append([]float64(nil), x...))
		if len(res.Phi) == 0 {
			res.Phi = append(res.Phi, 0)
		} else {
			kk := len(res.T2) - 1
			h := res.T2[kk] - res.T2[kk-1]
			res.Phi = append(res.Phi, res.Phi[kk-1]+h*(res.Omega[kk]+res.Omega[kk-1])/2)
		}
	}

	t2 := 0.0
	x := append([]float64(nil), xhat0...)
	omega := omega0
	record(t2, omega, x)
	h := opt.H2
	hMin := opt.H2 / 1024
	endTol := t2EndTol * t2End
	stepIdx := 0
	sinceGrow := 0
	xNew := make([]float64, len(x))
	for t2End-t2 > endTol {
		if opt.Ctx != nil {
			if cerr := opt.Ctx.Err(); cerr != nil {
				return res, solverr.Wrap(solverr.KindCanceled, "core.envelope", cerr).
					WithT2(t2).WithStep(stepIdx)
			}
		}
		if t2+h > t2End {
			h = t2End - t2
		}
		copy(xNew, x)
		omegaNew := omega
		// Damp startup with Backward Euler: if the initial waveform does
		// not satisfy the phase condition exactly, the snap would otherwise
		// seed an undamped even/odd ringing of ω under the trapezoidal rule.
		useTrap := opt.Trap && stepIdx >= 2
		resN, err := asm.step(t2, h, x, omega, xNew, &omegaNew, useTrap)
		res.LinearSolves += resN.Iterations
		if err != nil {
			// A canceled run is not a numerical failure: return the partial
			// result immediately instead of burning the deadline on retries.
			if solverr.IsKind(err, solverr.KindCanceled) {
				return res, err
			}
			// The in-step escalation ladder is exhausted: the waveform is
			// reshaping faster than any rescue can follow (e.g. the control
			// sweeping through its extreme). Halve the step, reset the ladder
			// state so the smaller step starts from a fresh linearization, and
			// retry, growing back gradually afterwards.
			if h <= hMin {
				k := solverr.KindOf(err)
				if k == solverr.KindUnknown {
					k = solverr.KindStagnation
				}
				return res, solverr.Wrap(k, "core.envelope", err).
					WithMsg("envelope step failed at minimum step h=%.3g", h).
					WithT2(t2).WithStep(stepIdx)
			}
			res.StepHalvings++
			asm.reuse.Invalidate()
			h /= 2
			sinceGrow = 0
			continue
		}
		t2 += h
		stepIdx++
		copy(x, xNew)
		omega = omegaNew
		record(t2, omega, x)
		if h < opt.H2 {
			sinceGrow++
			if sinceGrow >= 4 {
				h = math.Min(2*h, opt.H2)
				sinceGrow = 0
			}
		}
	}
	return res, nil
}

// envAssembler drives the one-line grid through implicit t2 steps: BE
//
//	ω·Σ_m D[j,m]·q_i(x_m) + (q_i(x_j) − q_i(x_jᵖʳᵉᵛ))/h + f_i(x_j, u) = 0
//
// or trapezoidal (the ω·D·q and f terms averaged between the levels), plus
// the border. It owns what is the envelope's own: the step (stepAxis), the
// row scales, the chord carry and the harmonic preconditioner.
type envAssembler struct {
	g   *grid
	st  stepAxis
	in  lineInputs
	opt EnvelopeOptions

	rhsOld []float64 // ω·D·q + f at the previous level (Trap)
	zOld   []float64 // [x̂; ω] at the previous level
	z      []float64
	// usAtFactor: per-point inputs at the last factorization, for the
	// chord's input-drift gate (nil for slow-only inputs).
	usAtFactor []float64

	// Persistent solver state: the dense factorization workspace refactored
	// in place every Jacobian refresh, the Newton iteration scratch, and the
	// chord factorization carried between solves.
	lu    *la.LU
	nws   *newton.Workspace
	reuse newton.ReuseState
	// Cross-step chord bookkeeping: the step parameters and ω at the last
	// factorization, checked before reusing it on the next step.
	lastH, lastTheta, omegaAtFactor float64

	// The GMRES harmonic preconditioner, reused across iterations and steps
	// (built lazily on first use), and the parameters it was built at.
	prec                        *harmonicPrec
	precH, precTheta, precOmega float64
	// The supervision ladders: the linear one the matrix-free path solves
	// through, and the nonlinear rescue ladder of every step. t2 is the slow
	// time the current step starts from, read by the continuation rung's
	// input snapshot.
	lad          *linearLadder
	nl           *nonlinearLadder
	t2           float64
	uStart, uEnd []float64 // continuation-rung input scratch
	jqAvg, jfAvg *la.Dense
	precM        *la.CDense // one bin's system, factored into prec
}

func newEnvAssembler(sys dae.System, bord border, in lineInputs, opt EnvelopeOptions, stats *Stats) *envAssembler {
	n1, n := opt.N1, sys.Dim()
	nx := n1 * n
	a := &envAssembler{
		in: in, opt: opt,
		st:     stepAxis{prev: make([]float64, nx)},
		rhsOld: make([]float64, nx),
		zOld:   make([]float64, nx+1),
		z:      make([]float64, nx+1),
		nws:    newton.NewWorkspace(nx + 1),
	}
	// The dense Jacobian and its LU workspace are the dominant memory of a
	// large run (O((N1·n)²) each); the matrix-free path must never pay for
	// them, so only the dense path allocates them.
	dense := opt.Linear != LinearMatrixFree
	a.g = newGrid(sys, n1, 1, &a.st, bord, in, dense)
	if dense {
		a.lu = la.NewLU(nx + 1)
	}
	a.lad = newLinearLadder(stats)
	// Every rescue rung restarts from the step's initial iterate with a
	// fresh Jacobian per iteration (opt.Newton already damps).
	base := opt.Newton
	base.Work = a.nws
	a.nl = &nonlinearLadder{
		stats: stats, chord: true, base: base,
		z0:      make([]float64, nx+1),
		restart: a.restartRung, blend: a.blendInputs, restore: a.restoreInputs,
	}
	a.uStart = make([]float64, len(a.g.us))
	a.uEnd = make([]float64, len(a.g.us))
	if in.input2 != nil {
		a.usAtFactor = make([]float64, len(a.g.us))
	}
	return a
}

// inputDriftTol is the per-point input change that retires cross-step
// chord factors. Inputs are O(1) control levels (e.g. PWM values in
// [0, 1]) multiplying O(Gon) conductances, so a 1% shift already moves a
// switching device's Jacobian entries by ~Gon/100 — past that, stale
// factors stop contracting and the failed chord attempt costs more than
// the refactorization it tried to save.
const inputDriftTol = 1e-2

// inputsDrifted reports whether the per-point inputs have moved past
// inputDriftTol since the last factorization.
func (a *envAssembler) inputsDrifted() bool {
	for i, u := range a.usAtFactor {
		if abs(a.g.us[i]-u) > inputDriftTol {
			return true
		}
	}
	return false
}

// step solves for (xNew, omegaNew) at t2+h given the previous level. The
// returned Result sums the chord attempt and every rescue rung that ran;
// the nonlinear ladder has already added that Newton work to the run's
// Stats.
func (a *envAssembler) step(t2, h float64, xOld []float64, omegaOld float64, xNew []float64, omegaNew *float64, useTrap bool) (newton.Result, error) {
	g := a.g
	nx := g.nx
	copy(a.zOld, xOld)
	a.zOld[nx] = omegaOld
	omegas := a.zOld[nx:]
	a.in.fill(g.us, g.n1, 0, t2)
	g.sample(xOld, a.st.prev)
	theta := 1.0 // BE
	a.st.old = nil
	if useTrap {
		theta = 0.5
		g.rhsAt(xOld, omegas, a.rhsOld)
		a.st.old = a.rhsOld
	}
	a.st.h, a.st.th = h, theta
	a.in.fill(g.us, g.n1, 0, t2+h)

	// Residual scales from the previous level, so the Newton tolerance is
	// effectively relative per row (g.rhs is scratch until the first
	// residual evaluation).
	g.rhsAt(xOld, omegas, g.rhs)
	maxScale := 0.0
	for j := 0; j < nx; j++ {
		s := abs(a.st.prev[j])/h + abs(g.rhs[j])
		g.scale[j] = s
		if s > maxScale {
			maxScale = s
		}
	}
	// Relative floor: algebraic rows (KCL at chargeless nodes, source
	// branches) have near-zero residual at the previous solution; scaling
	// them by that residual would make the relative tolerance unreachable.
	floor := 1e-6 * maxScale
	if floor == 0 {
		floor = 1
	}
	for j := 0; j < nx; j++ {
		if g.scale[j] < floor {
			g.scale[j] = floor
		}
	}
	g.scale[nx] = g.borderScale(a.zOld, 0)

	z := a.z
	copy(z, xNew)
	z[nx] = *omegaNew

	jac := func(z []float64) (newton.LinearSolve, error) {
		if a.opt.Linear == LinearMatrixFree {
			// Matrix-free linearization: refresh the operator's snapshots and
			// device-Jacobian slots — no (N1·n+1)² assembly, no factorization.
			// The harmonic preconditioner averages the same slots, and the
			// ladder's direct rescue assembles sparsely from them.
			op := g.operator(z)
			a.omegaAtFactor = z[nx]
			copy(a.usAtFactor, g.us)
			prec, err := a.harmonicPrecFor(z[nx], h, theta)
			if err != nil {
				return nil, err
			}
			a.lad.reset(op, prec, op.assembleSparse)
			return a.lad, nil
		}
		jj := g.jacobian(z)
		a.omegaAtFactor = z[nx]
		copy(a.usAtFactor, g.us)
		if err := a.lu.FactorInto(jj); err != nil {
			return nil, err
		}
		return a.lu, nil
	}
	// Modified Newton: the Jacobian changes little within one t2 step, so
	// factor once and reuse the factors across iterations — and, in
	// ChordNewton mode, across steps while the system keeps its shape. If
	// the chord iteration stalls (waveform reshaping quickly), the rescue
	// ladder retries from the same start with fresh factorizations.
	chordOpts := a.opt.Newton
	chordOpts.MaxIter = 3 * a.opt.Newton.MaxIter
	chordOpts.JacobianReuse = true
	chordOpts.Reuse = &a.reuse
	chordOpts.Work = a.nws
	if a.opt.ChordNewton {
		chordOpts.ReuseContraction = a.opt.ChordContraction
		if a.reuse.Cached() {
			drift := abs(omegaOld-a.omegaAtFactor) > omegaDriftTol*abs(a.omegaAtFactor)
			if h != a.lastH || theta != a.lastTheta || drift || a.inputsDrifted() {
				a.reuse.Invalidate()
			}
		}
	} else {
		// Factor exactly once per step and never mid-solve: the historical
		// per-step chord the golden suite pins down bitwise.
		chordOpts.ReuseContraction = math.Inf(1)
		a.reuse.Invalidate()
	}
	a.lastH, a.lastTheta = h, theta
	a.t2 = t2
	resN, err := a.nl.solve(newton.Problem{N: nx + 1, Eval: g.residual, Jacobian: jac}, z, chordOpts)
	if err != nil {
		if solverr.IsKind(err, solverr.KindCanceled) {
			return resN, err
		}
		return resN, a.nl.exhausted(err, "core.envelope.step", resN).
			WithMsg("nonlinear ladder exhausted").WithT2(t2)
	}
	if serr := checkState("core.envelope.step", z); serr != nil {
		return resN, serr
	}
	if z[nx] <= 0 {
		return resN, solverr.New(solverr.KindStagnation, "core.envelope.step",
			"local frequency went non-positive (ω=%g)", z[nx]).WithT2(t2)
	}
	copy(xNew, z[:nx])
	*omegaNew = z[nx]
	return resN, nil
}

// restartRung prepares nonlinear rescue rung r. Every rung drops the chord
// factorization, and continuation snapshots the inputs it blends: the
// previous level's values (where xOld solves the system well) and the new
// level's.
func (a *envAssembler) restartRung(r rescueRung) {
	a.reuse.Invalidate()
	if r == rungContinuation {
		copy(a.uEnd, a.g.us)
		a.in.fill(a.uStart, a.g.n1, 0, a.t2)
	}
}

// blendInputs walks the step's inputs from the previous level (λ = 0) to
// the new one (λ = 1), walking the solution across the step instead of
// jumping.
func (a *envAssembler) blendInputs(lambda float64) { lerp(a.g.us, a.uStart, a.uEnd, lambda) }

// restoreInputs puts the true t2+h inputs back exactly.
func (a *envAssembler) restoreInputs() { copy(a.g.us, a.uEnd) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
