package core

import (
	"context"
	"math"

	"repro/internal/dae"
	"repro/internal/fourier"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/par"
	"repro/internal/solverr"
)

// ptGrain is how many collocation points one parallel chunk owns in the
// per-point kernels (device evaluations, Jacobian row blocks). Grids up to
// one grain collapse to a single chunk and run serially; the value must not
// depend on the worker count (see package par's determinism contract).
const ptGrain = 16

// dqGrain chunks the rows of the (D⊗I)·q spectral product.
const dqGrain = 32

// LinearKind selects the linear solver used inside the per-step Newton
// iterations.
type LinearKind int

const (
	// LinearDenseLU assembles the dense bordered Jacobian and factors it
	// (the right default at the paper's problem sizes).
	LinearDenseLU LinearKind = iota
	// LinearMatrixFree is the paper's §1/§4 "iterative linear techniques
	// [Saa96]" path for large systems: it solves the Jacobian system with
	// GMRESDR applied to a matrix-free operator (core.SpectralOp), under the
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
	N1       int        // t1 collocation points, default 25
	H2       float64    // t2 step (required)
	Trap     bool       // trapezoidal (instead of BE) t2 integration
	Phase    PhaseKind  // default PhaseDerivativeZero
	Anchor   float64    // value for PhaseFixValue
	Linear   LinearKind // default LinearDenseLU
	Newton   newton.Options
	GMRESTol float64 // default 1e-10
	// Adaptive enables local-error control of the t2 step: H2 becomes the
	// initial (and maximum) step, shrunk and regrown against RelTol/AbsTol.
	Adaptive bool
	RelTol   float64 // default 1e-4
	AbsTol   float64 // default 1e-7
	// OnStep, if non-nil, observes each accepted t2 point; returning false
	// stops the run early.
	OnStep func(t2, omega float64, xhat []float64) bool
	// ChordNewton carries the chord (modified-Newton) factorization across
	// accepted t2 steps instead of refreshing it at the start of every step:
	// the Jacobian of the step system drifts slowly along a smooth envelope,
	// so successive steps can share one LU. The factorization is dropped
	// whenever the step system changes shape — the t2 step size or integrator
	// weight changed, or ω drifted past OmegaDriftTol since it was factored —
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
	// OmegaDriftTol is the relative ω drift beyond which cross-step chord
	// factorizations and the recycled GMRES harmonic preconditioner are
	// rebuilt. Default 0.02.
	OmegaDriftTol float64
	// RecycleKrylov (LinearMatrixFree only) carries a GCRO-DR deflation space
	// across the step solver's GMRES calls: harmonic Ritz vectors harvested
	// from one solve deflate the slow modes of the next, cutting matvecs
	// while the linearization holds still — within a step's Newton
	// iterations, and across steps under ChordNewton's reuse windows. The
	// space is discarded at every Jacobian refresh and harmonic-
	// preconditioner rebuild (the ω-drift gate), since either redefines the
	// preconditioned operator it was harvested from. Off by default: the
	// historical GMRES path the golden suite pins down.
	RecycleKrylov bool
	// Ctx, when non-nil, makes the run cancelable: it is checked before every
	// t2 step and once per Newton iteration inside a step. On cancellation
	// Envelope returns the partial EnvelopeResult accumulated so far together
	// with a solverr.KindCanceled error (the cmd drivers expose this as
	// -timeout).
	Ctx context.Context
	// Warm, when non-nil, is the sweep continuation carrier. On entry a
	// compatible envelope payload is adopted: the chord LU factors (dense-LU
	// path, with ChordNewton) or the harmonic preconditioner (matrix-free path)
	// from the neighboring parameter point, plus the GMRESDR deflation space
	// via krylov.Recycler.Handoff — the handed-off space runs untrusted, so
	// per-cycle true-residual verification guards the cross-point staleness,
	// and the usual drift gates (ChordContraction, OmegaDriftTol) retire the
	// carried factors the moment they stop paying. A warm run also starts
	// directly with the trapezoidal rule when Trap is set: the BE startup
	// damping exists to kill the phase-condition ringing of a cold initial
	// waveform, which a carried converged envelope state does not have (and
	// BE's θ=1 would immediately invalidate factors carried at θ=1/2). On a
	// successful run the carrier is refreshed with this run's final
	// waveform, factors and deflation space. Warm runs are deliberately
	// bit-inexact relative to cold runs; nil Warm (the default) is the
	// historical path the golden suite pins bitwise.
	Warm *WarmStart

	// omegaPin (> 0) switches the solver into forced (unwarped-MPDE) mode:
	// ω is pinned to this value instead of being solved for, and the phase
	// row becomes the trivial equation ω − omegaPin = 0 — the driven-system
	// corner of the MPDE where the fast period is set by the source (a PWM
	// switching clock), not by an autonomous oscillation. Set only through
	// ForcedEnvelope; zero (the default) is the autonomous WaMPDE path.
	omegaPin float64
	// input2, when non-nil, evaluates the inputs per collocation point:
	// input2(tau, t2, u) fills u at normalized fast phase tau = j/N1 and
	// slow time t2. nil (the default) keeps the historical slow-only
	// Input(t2) evaluation shared by all collocation points.
	input2 func(tau, t2 float64, u []float64)
}

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
	if o.GMRESTol <= 0 {
		o.GMRESTol = 1e-10
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-4
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-7
	}
	if o.ChordContraction <= 0 {
		o.ChordContraction = 0.05
	}
	if o.OmegaDriftTol <= 0 {
		o.OmegaDriftTol = 0.02
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
	n := sys.Dim()
	n1 := opt.N1
	if len(xhat0) != n1*n {
		return nil, solverr.New(solverr.KindBadInput, "core.envelope",
			"len(xhat0)=%d, want N1·n=%d", len(xhat0), n1*n)
	}
	if opt.H2 <= 0 {
		return nil, solverr.New(solverr.KindBadInput, "core.envelope", "EnvelopeOptions.H2 must be positive")
	}
	if t2End <= 0 {
		return nil, solverr.New(solverr.KindBadInput, "core.envelope", "t2End must be positive")
	}
	if omega0 <= 0 {
		return nil, solverr.New(solverr.KindBadInput, "core.envelope", "omega0 must be positive")
	}
	if err := solverr.CheckFinite("core.envelope", xhat0); err != nil {
		return nil, err
	}
	var k int
	var w []float64
	var c float64
	if opt.omegaPin > 0 {
		// Forced mode: ω is pinned, so there is no phase condition on the
		// waveform — the weights are all zero and k is an unused placeholder.
		k = 0
		w = make([]float64, n1)
	} else {
		k = sys.OscVar()
		if k < 0 || k >= n {
			return nil, ErrNeedOscillation
		}
		var err error
		w, c, err = phaseRow(opt.Phase, n1, opt.Anchor)
		if err != nil {
			return nil, err
		}
		if opt.Phase == PhaseFixValue {
			// Anchor must be consistent with the IC to avoid a phase jump.
			c = xhat0[0*n+k]
		}
	}

	res := &EnvelopeResult{N1: n1, N: n}
	asm := newEnvAssembler(sys, n1, n, k, w, c, opt, &res.Stats)
	// The recycler's counters are reported on every exit, including early
	// OnStep stops and step failures, so cost accounting stays honest.
	defer asm.lad.reportRecycler()
	record := func(t2, omega float64, x []float64) bool {
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
		if opt.OnStep != nil {
			return opt.OnStep(t2, omega, x)
		}
		return true
	}

	t2 := 0.0
	x := append([]float64(nil), xhat0...)
	omega := omega0
	if !record(t2, omega, x) {
		asm.harvestInto(opt.Warm, x, omega)
		return res, nil
	}
	h := opt.H2
	hMin := opt.H2 / 1024
	endTol := 1e-12 * t2End
	stepIdx := 0
	sinceGrow := 0
	// Previous accepted point, for the adaptive predictor.
	var t2Prev, omegaPrev float64
	var xPrev []float64
	havePrev := false
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
		// A warm continuation run starts from a converged envelope state that
		// has no such ringing, and BE's θ=1 would invalidate chord factors
		// carried at θ=1/2 — so it skips the damping (see Warm).
		useTrap := opt.Trap && (stepIdx >= 2 || asm.adoptedCarry)
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
			asm.lad.rec.Invalidate()
			h /= 2
			sinceGrow = 0
			continue
		}
		if opt.Adaptive && havePrev && stepIdx >= 2 {
			errNorm := envelopeLTE(x, xNew, xPrev, omega, omegaNew, omegaPrev,
				t2, t2Prev, h, opt.AbsTol, opt.RelTol)
			if errNorm > 1 && h > hMin {
				res.Rejected++
				fac := 0.9 * math.Pow(1/errNorm, 1.0/3)
				h = math.Max(h*math.Max(fac, 0.2), hMin)
				sinceGrow = 0
				continue
			}
			// Accept; propose the next step within [hMin, H2].
			fac := 2.0
			if errNorm > 0 {
				fac = math.Min(0.9*math.Pow(1/errNorm, 1.0/3), 2)
			}
			if xPrev == nil {
				xPrev = make([]float64, len(x))
			}
			copy(xPrev, x)
			t2Prev, omegaPrev = t2, omega
			havePrev = true
			t2 += h
			stepIdx++
			copy(x, xNew)
			omega = omegaNew
			if !record(t2, omega, x) {
				asm.harvestInto(opt.Warm, x, omega)
				return res, nil
			}
			h = math.Min(math.Max(h*fac, hMin), opt.H2)
			continue
		}
		if xPrev == nil {
			xPrev = make([]float64, len(x))
		}
		copy(xPrev, x)
		t2Prev, omegaPrev = t2, omega
		havePrev = true
		t2 += h
		stepIdx++
		copy(x, xNew)
		omega = omegaNew
		if !record(t2, omega, x) {
			asm.harvestInto(opt.Warm, x, omega)
			return res, nil
		}
		if h < opt.H2 {
			sinceGrow++
			if sinceGrow >= 4 {
				h = math.Min(2*h, opt.H2)
				sinceGrow = 0
			}
		}
	}
	asm.harvestInto(opt.Warm, x, omega)
	return res, nil
}

// envelopeLTE estimates the local truncation error of an accepted step by
// comparing the implicit solution with linear extrapolation through the two
// previous points, weighted by AbsTol/RelTol (≤1 accepts). ω is included as
// an additional component: frequency error is what integrates into phase
// error, the quantity the WaMPDE exists to control.
func envelopeLTE(xOld, xNew, xPrev []float64, omegaOld, omegaNew, omegaPrev,
	t2, t2Prev, h, atol, rtol float64) float64 {
	r := h / (t2 - t2Prev)
	worst := 0.0
	acc := 0.0
	cnt := 0
	for i := range xNew {
		pred := xOld[i] + r*(xOld[i]-xPrev[i])
		w := atol + rtol*math.Abs(xNew[i])
		d := (xNew[i] - pred) / w
		acc += d * d
		cnt++
	}
	predW := omegaOld + r*(omegaOld-omegaPrev)
	dw := (omegaNew - predW) / (atol + rtol*math.Abs(omegaNew))
	acc += dw * dw
	cnt++
	worst = math.Sqrt(acc/float64(cnt)) / 2 // ÷2: the predictor is first order
	return worst
}

// envAssembler evaluates and solves one implicit t2 step of the WaMPDE.
// Unknowns z = [x̂ samples (N1·n); ω]; equations: N1·n collocation rows
// plus the phase row. Collocation row (j, i), Backward Euler:
//
//	ω·Σ_m D[j,m]·q_i(x_m) + (q_i(x_j) − q_i(x_jᵖʳᵉᵛ))/h + f_i(x_j, u) = 0
//
// and for trapezoidal t2 integration the ω·D·q and f terms are averaged
// between the two time levels.
type envAssembler struct {
	sys dae.Autonomous
	n1  int
	n   int
	k   int
	w   []float64 // phase-row weights
	c   float64
	opt EnvelopeOptions
	d   []float64 // spectral differentiation matrix (period 1)
	u   []float64
	// Per-collocation-point inputs (opt.input2 mode): us holds n1 slots of
	// NumInputs values each, filled at the point's fast phase; usStart/usEnd
	// are the continuation-rung blending scratch mirroring uStart/uEnd.
	// usAtFactor snapshots us at the last Jacobian factorization — the
	// input-drift gate for cross-step chord reuse (see step).
	us, usStart, usEnd, usAtFactor []float64

	qPrev  []float64 // q at the previous time level
	rhsOld []float64 // ω·D·q + f at the previous level (Trap)
	scale  []float64 // per-row residual scales

	// Per-point device Jacobians, filled in parallel during assembly.
	jqs []*la.Dense
	jfs []*la.Dense

	// Reused per-step scratch (hot path).
	qBuf    []float64
	fBuf    []float64 // per-point F scratch, one n-slot per collocation point
	z       []float64
	qNew    []float64
	rhsNew  []float64
	rhsPrev []float64
	jj      *la.Dense // dense Jacobian; nil on the matrix-free path
	mf      *SpectralOp

	// Persistent solver state: the dense factorization workspace refactored
	// in place every Jacobian refresh, the Newton iteration scratch, and the
	// chord factorization carried between solves.
	lu    *la.LU
	nws   *newton.Workspace
	reuse newton.ReuseState
	// Cross-step chord bookkeeping: the step parameters and ω at the last
	// factorization, checked before reusing it on the next step.
	lastH, lastTheta, omegaAtFactor float64

	// Recycled GMRES harmonic preconditioner (built lazily on first use) and
	// the parameters it was built at.
	prec                        *harmonicPrec
	precH, precTheta, precOmega float64
	// adoptedCarry marks that cross-point chord/preconditioner factors were
	// taken from EnvelopeOptions.Warm (which also switches the trapezoidal
	// startup on).
	adoptedCarry bool
	// The supervision ladders: the linear one the matrix-free path solves
	// through (it owns the Krylov recycler), and the nonlinear rescue ladder
	// of every step. t2 is the slow time the current step starts from, read
	// by the continuation rung's input snapshot.
	lad          *linearLadder
	nl           *nonlinearLadder
	t2           float64
	uStart, uEnd []float64 // continuation-rung input scratch
	jqAvg, jfAvg *la.Dense
	precMs       []*la.CDense // per-chunk bin assembly scratch, lo-indexed

	// Cached parallel kernels. Closures handed to par.For escape (the
	// parallel path stores them in goroutines), so building them at each
	// call site would allocate on every evaluation; instead each kernel is
	// built once here and its per-call inputs travel through the fields
	// below. Safe because the assembler serves one solve at a time and
	// par.For establishes happens-before on goroutine start.
	sampleFn           func(lo, hi int)
	sampleZ, sampleOut []float64
	dqFn               func(lo, hi int)
	dqIn, dqOut        []float64
	rhsFn              func(lo, hi int)
	rhsZ, rhsOut       []float64
	rhsOmega           float64
	devJacFn           func(lo, hi int)
	rowFn              func(lo, hi int)
	asmZ, asmDq        []float64
	asmH, asmTheta     float64
	asmOmega           float64
}

func newEnvAssembler(sys dae.Autonomous, n1, n, k int, w []float64, c float64, opt EnvelopeOptions, stats *Stats) *envAssembler {
	a := &envAssembler{
		sys: sys, n1: n1, n: n, k: k, w: w, c: c, opt: opt,
		d:       fourier.DiffMatrix(n1),
		u:       make([]float64, sys.NumInputs()),
		qPrev:   make([]float64, n1*n),
		rhsOld:  make([]float64, n1*n),
		scale:   make([]float64, n1*n+1),
		jqs:     make([]*la.Dense, n1),
		jfs:     make([]*la.Dense, n1),
		qBuf:    make([]float64, n1*n),
		fBuf:    make([]float64, n1*n),
		z:       make([]float64, n1*n+1),
		qNew:    make([]float64, n1*n),
		rhsNew:  make([]float64, n1*n),
		rhsPrev: make([]float64, n1*n),
		nws:     newton.NewWorkspace(n1*n + 1),
	}
	// The dense Jacobian and its LU workspace are the dominant memory of a
	// large run (O((N1·n)²) each); the matrix-free path must never pay for
	// them, so only the dense path allocates them.
	if opt.Linear != LinearMatrixFree {
		a.jj = la.NewDense(n1*n+1, n1*n+1)
		a.lu = la.NewLU(n1*n + 1)
	}
	a.lad = newLinearLadder(opt.GMRESTol, opt.RecycleKrylov && opt.Linear == LinearMatrixFree, opt.Warm, stats)
	if ec := opt.Warm.takeEnv(n1, n, opt.Linear); ec != nil {
		a.adoptedCarry = true
		if ec.lu != nil {
			// Dense-LU chord carry: the factors and reuse state transfer
			// ownership; step()'s drift gates (h, θ, ω, ChordContraction)
			// decide whether they survive the first step of this point.
			a.lu = ec.lu
			a.reuse = ec.reuse
			a.lastH, a.lastTheta, a.omegaAtFactor = ec.lastH, ec.lastTheta, ec.omegaAtFactor
		}
		if ec.prec != nil {
			// Matrix-free carry: the harmonic preconditioner is reused while ω
			// stays inside OmegaDriftTol of where it was factored.
			a.prec = ec.prec
			a.precH, a.precTheta, a.precOmega = ec.precH, ec.precTheta, ec.precOmega
		}
	}
	// Every rescue rung restarts from the step's initial iterate with a
	// fresh Jacobian per iteration (opt.Newton already damps).
	base := opt.Newton
	base.Work = a.nws
	a.nl = &nonlinearLadder{
		stats: stats, chord: true, base: base,
		z0:      make([]float64, n1*n+1),
		restart: a.restartRung, blend: a.blendInputs, restore: a.restoreInputs,
	}
	a.uStart = make([]float64, sys.NumInputs())
	a.uEnd = make([]float64, sys.NumInputs())
	if opt.input2 != nil {
		a.us = make([]float64, n1*sys.NumInputs())
		a.usStart = make([]float64, n1*sys.NumInputs())
		a.usEnd = make([]float64, n1*sys.NumInputs())
		a.usAtFactor = make([]float64, n1*sys.NumInputs())
	}
	for j := 0; j < n1; j++ {
		a.jqs[j] = la.NewDense(n, n)
		a.jfs[j] = la.NewDense(n, n)
	}
	a.sampleFn = func(lo, hi int) {
		z, out := a.sampleZ, a.sampleOut
		for j := lo; j < hi; j++ {
			a.sys.Q(z[j*n:(j+1)*n], out[j*n:(j+1)*n])
		}
	}
	a.dqFn = func(lo, hi int) {
		q, out := a.dqIn, a.dqOut
		for j := lo; j < hi; j++ {
			row := a.d[j*n1 : (j+1)*n1]
			for i := 0; i < n; i++ {
				out[j*n+i] = 0
			}
			for m, wgt := range row {
				if wgt == 0 {
					continue
				}
				qm := q[m*n : (m+1)*n]
				dst := out[j*n : (j+1)*n]
				for i := 0; i < n; i++ {
					dst[i] += wgt * qm[i]
				}
			}
		}
	}
	a.rhsFn = func(lo, hi int) {
		z, out, omega := a.rhsZ, a.rhsOut, a.rhsOmega
		q := a.qBuf
		f := a.fBuf[lo*n : lo*n+n]
		for j := lo; j < hi; j++ {
			drow := a.d[j*n1 : (j+1)*n1]
			dst := out[j*n : (j+1)*n]
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
			for m, wgt := range drow {
				if wgt == 0 {
					continue
				}
				qm := q[m*n : (m+1)*n]
				for i := 0; i < n; i++ {
					dst[i] += wgt * qm[i]
				}
			}
			a.sys.F(z[j*n:(j+1)*n], a.uAt(j), f)
			for i := 0; i < n; i++ {
				dst[i] = omega*dst[i] + f[i]
			}
		}
	}
	a.devJacFn = func(lo, hi int) {
		z := a.asmZ
		for m := lo; m < hi; m++ {
			xm := z[m*n : (m+1)*n]
			a.sys.JQ(xm, a.jqs[m])
			a.sys.JF(xm, a.uAt(m), a.jfs[m])
		}
	}
	a.rowFn = func(lo, hi int) {
		jj, dq := a.jj, a.asmDq
		h, theta, omega := a.asmH, a.asmTheta, a.asmOmega
		for j := lo; j < hi; j++ {
			for r := 0; r < n; r++ {
				row := jj.Row(j*n + r)
				for cc := range row {
					row[cc] = 0
				}
			}
			// ω·D coupling: rows (j,·) pick up θ·ω·D[j,m]·JQ(x_m).
			for m := 0; m < n1; m++ {
				wgt := theta * omega * a.d[j*n1+m]
				if wgt == 0 {
					continue
				}
				jq := a.jqs[m]
				for r := 0; r < n; r++ {
					row := jj.Row(j*n + r)
					jqRow := jq.Row(r)
					for cc := 0; cc < n; cc++ {
						row[m*n+cc] += wgt * jqRow[cc]
					}
				}
			}
			// Diagonal block JQ/h + θ·JF, the ∂/∂ω column θ·(D·q), and the
			// row scaling that matches the scaled residual.
			jq, jf := a.jqs[j], a.jfs[j]
			for r := 0; r < n; r++ {
				row := jj.Row(j*n + r)
				jqRow := jq.Row(r)
				jfRow := jf.Row(r)
				for cc := 0; cc < n; cc++ {
					row[j*n+cc] += jqRow[cc]/h + theta*jfRow[cc]
				}
				row[n1*n] = theta * dq[j*n+r]
				s := a.scale[j*n+r]
				for cc := range row {
					row[cc] /= s
				}
			}
		}
	}
	return a
}

// uAt returns the input vector seen by collocation point j: the shared
// slow-only vector a.u, or point j's slot of the per-point grid in
// opt.input2 mode.
func (a *envAssembler) uAt(j int) []float64 {
	if a.opt.input2 == nil {
		return a.u
	}
	nIn := len(a.u)
	return a.us[j*nIn : (j+1)*nIn]
}

// fillInputsInto evaluates the inputs at slow time t2 into u (slow-only
// mode) or the per-point grid us (input2 mode, one evaluation per
// collocation point at its normalized fast phase j/N1).
func (a *envAssembler) fillInputsInto(t2 float64, u, us []float64) {
	if a.opt.input2 == nil {
		a.sys.Input(t2, u)
		return
	}
	nIn := len(a.u)
	for j := 0; j < a.n1; j++ {
		a.opt.input2(float64(j)/float64(a.n1), t2, us[j*nIn:(j+1)*nIn])
	}
}

// fillInputs evaluates the inputs at t2 into the assembler's live slots.
func (a *envAssembler) fillInputs(t2 float64) { a.fillInputsInto(t2, a.u, a.us) }

// inputDriftTol is the per-point input change that retires cross-step
// chord factors. Inputs are O(1) control levels (e.g. PWM values in
// [0, 1]) multiplying O(Gon) conductances, so a 1% shift already moves a
// switching device's Jacobian entries by ~Gon/100 — past that, stale
// factors stop contracting and the failed chord attempt costs more than
// the refactorization it tried to save.
const inputDriftTol = 1e-2

// snapInputs records the per-point inputs the Jacobian was factored at.
func (a *envAssembler) snapInputs() {
	if a.opt.input2 != nil {
		copy(a.usAtFactor, a.us)
	}
}

// inputsDrifted reports whether the per-point inputs have moved past
// inputDriftTol since the last factorization. Slow-only runs (no input2)
// have constant per-step inputs and never drift.
func (a *envAssembler) inputsDrifted() bool {
	if a.opt.input2 == nil {
		return false
	}
	for i, u := range a.us {
		if abs(u-a.usAtFactor[i]) > inputDriftTol {
			return true
		}
	}
	return false
}

// sampleQ evaluates q at all collocation points into out, in parallel
// chunks of points (each point writes only its own n-slot).
func (a *envAssembler) sampleQ(z, out []float64) {
	a.sampleZ, a.sampleOut = z, out
	par.For(a.n1, ptGrain, a.sampleFn)
}

// dTimesQ computes (D⊗I)·q into out given sampled q. Output rows are
// independent, so they compute in parallel; each row accumulates its D
// weights in the same m order at any worker count.
func (a *envAssembler) dTimesQ(q, out []float64) {
	a.dqIn, a.dqOut = q, out
	par.For(a.n1, dqGrain, a.dqFn)
}

// rhs computes ω·D·q(x) + f(x,u) into out. After q is sampled, each
// collocation point's spectral row and device F evaluation are fused into
// one parallel pass; a chunk starting at point lo uses fBuf[lo·n:lo·n+n] as
// its private F scratch, so chunks never share device scratch.
func (a *envAssembler) rhs(z []float64, omega float64, out []float64) {
	a.sampleQ(z, a.qBuf)
	a.rhsZ, a.rhsOut, a.rhsOmega = z, out, omega
	par.For(a.n1, ptGrain, a.rhsFn)
}

// step solves for (xNew, omegaNew) at t2+h given the previous level. The
// returned Result sums the chord attempt and every rescue rung that ran;
// the nonlinear ladder has already added that Newton work to the run's
// Stats.
func (a *envAssembler) step(t2, h float64, xOld []float64, omegaOld float64, xNew []float64, omegaNew *float64, useTrap bool) (newton.Result, error) {
	n1, n := a.n1, a.n
	total := n1*n + 1
	a.fillInputs(t2)
	a.sampleQ(xOld, a.qPrev)
	theta := 1.0 // BE
	if useTrap {
		theta = 0.5
		a.rhs(xOld, omegaOld, a.rhsOld)
	}
	a.fillInputs(t2 + h)

	// Residual scales from the previous level, so the Newton tolerance is
	// effectively relative per row.
	rhsNow := a.rhsPrev
	a.rhs(xOld, omegaOld, rhsNow)
	maxScale := 0.0
	for j := 0; j < n1*n; j++ {
		s := abs(a.qPrev[j])/h + abs(rhsNow[j])
		a.scale[j] = s
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
	for j := 0; j < n1*n; j++ {
		if a.scale[j] < floor {
			a.scale[j] = floor
		}
	}
	sPhase := 0.0
	if a.opt.omegaPin > 0 {
		// Pinned ω: the phase row is ω − ωPin, so its natural scale is ωPin
		// itself (the residual becomes relative frequency error).
		sPhase = a.opt.omegaPin
	} else {
		for j := 0; j < n1; j++ {
			sPhase += abs(a.w[j]) * (1 + abs(xOld[j*n+a.k]))
		}
	}
	if sPhase == 0 {
		sPhase = 1
	}
	a.scale[n1*n] = sPhase

	z := a.z
	copy(z, xNew)
	z[n1*n] = *omegaNew

	qNew := a.qNew
	rhsNew := a.rhsNew
	eval := func(z, r []float64) error {
		omega := z[n1*n]
		a.sampleQ(z[:n1*n], qNew)
		a.rhs(z[:n1*n], omega, rhsNew)
		for j := 0; j < n1*n; j++ {
			v := (qNew[j]-a.qPrev[j])/h + theta*rhsNew[j]
			if useTrap {
				v += (1 - theta) * a.rhsOld[j]
			}
			r[j] = v / a.scale[j]
		}
		if a.opt.omegaPin > 0 {
			r[n1*n] = (omega - a.opt.omegaPin) / a.scale[n1*n]
			return nil
		}
		ph := -a.c
		for j := 0; j < n1; j++ {
			ph += a.w[j] * z[j*n+a.k]
		}
		r[n1*n] = ph / a.scale[n1*n]
		return nil
	}
	jac := func(z []float64) (newton.LinearSolve, error) {
		if a.opt.Linear == LinearMatrixFree {
			// Matrix-free linearization: refresh the operator's snapshots and
			// device-Jacobian slots — no (N1·n+1)² assembly, no factorization.
			// The harmonic preconditioner averages the same slots, and the
			// ladder's direct rescue assembles sparsely from them.
			op := a.matFreeOpFor(z, h, theta)
			a.omegaAtFactor = z[n1*n]
			a.snapInputs()
			a.lad.refresh()
			prec, err := a.harmonicPrecFor(z[n1*n], h, theta)
			if err != nil {
				return nil, err
			}
			a.lad.reset(op, prec, op.assembleSparse)
			return a.lad, nil
		}
		jj := a.assembleJacobian(z, h, theta)
		a.omegaAtFactor = z[n1*n]
		a.snapInputs()
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
			drift := abs(omegaOld-a.omegaAtFactor) > a.opt.OmegaDriftTol*abs(a.omegaAtFactor)
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
	resN, err := a.nl.solve(newton.Problem{N: total, Eval: eval, Jacobian: jac}, z, chordOpts)
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
	if z[n1*n] <= 0 {
		return resN, solverr.New(solverr.KindStagnation, "core.envelope.step",
			"local frequency went non-positive (ω=%g)", z[n1*n]).WithT2(t2)
	}
	copy(xNew, z[:n1*n])
	*omegaNew = z[n1*n]
	return resN, nil
}

// restartRung prepares nonlinear rescue rung r. Every rung drops the chord
// factorization; rung 2 drops nothing else, so unarmed runs that recover
// there stay bitwise the historical retry. Later rungs also drop the
// recycled Krylov space (it belongs to the iterates that just failed), and
// continuation snapshots the inputs it blends: the previous level's values
// (where xOld solves the system well) and the new level's.
func (a *envAssembler) restartRung(r rescueRung) {
	a.reuse.Invalidate()
	if r == rungFullNewton {
		return
	}
	a.lad.rec.Invalidate()
	if r == rungContinuation {
		copy(a.uEnd, a.u)
		copy(a.usEnd, a.us)
		a.fillInputsInto(a.t2, a.uStart, a.usStart)
	}
}

// blendInputs walks the step's inputs from the previous level (λ = 0) to
// the new one (λ = 1), walking the solution across the step instead of
// jumping.
func (a *envAssembler) blendInputs(lambda float64) {
	lerp(a.u, a.uStart, a.uEnd, lambda)
	lerp(a.us, a.usStart, a.usEnd, lambda)
}

// restoreInputs puts the true t2+h inputs back exactly.
func (a *envAssembler) restoreInputs() {
	copy(a.u, a.uEnd)
	copy(a.us, a.usEnd)
}

// assembleJacobian builds the scaled, bordered Jacobian of the step system.
//
// The assembly is row-centric so it parallelizes without write conflicts:
// the per-point device Jacobians JQ/JF are evaluated into private slots on
// the worker pool, then each collocation point fills (zeroes, accumulates,
// and scales) exactly its own n rows — gathering the ω·D coupling from all
// points m in ascending order, so the result is worker-count independent.
func (a *envAssembler) assembleJacobian(z []float64, h, theta float64) *la.Dense {
	n1, n := a.n1, a.n
	jj := a.jj
	q := a.qBuf
	a.sampleQ(z[:n1*n], q)
	dq := a.rhsNew // reused as D·q scratch; rewritten on the next eval
	a.dTimesQ(q, dq)

	a.asmZ, a.asmDq = z, dq
	a.asmH, a.asmTheta, a.asmOmega = h, theta, z[n1*n]

	// Per-point device Jacobians into their own slots.
	par.For(n1, ptGrain, a.devJacFn)

	// Row blocks: point j owns rows j·n..j·n+n-1 of the bordered system.
	par.For(n1, ptGrain, a.rowFn)

	// Phase row: ω-identity in pinned mode, the wᵀ waveform condition
	// otherwise.
	{
		row := jj.Row(n1 * n)
		for cc := range row {
			row[cc] = 0
		}
		if a.opt.omegaPin > 0 {
			row[n1*n] = 1
		} else {
			for j := 0; j < n1; j++ {
				row[j*n+a.k] = a.w[j]
			}
		}
		s := a.scale[n1*n]
		for cc := range row {
			row[cc] /= s
		}
	}
	return jj
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
