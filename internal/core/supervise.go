package core

import (
	"errors"

	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/solverr"
	"repro/internal/sparse"
)

// This file holds the solve-supervision machinery shared by the envelope and
// quasiperiodic solvers: the linear escalation ladder of the matrix-free
// path, the nonlinear rescue ladder, and the Stats both result types report.
// The paper leaves the per-step nonlinear solve open ("any numerical method
// ... such as Newton-Raphson or continuation", §4.1); supervision is what
// makes that freedom safe at scale — a failed rung reports a structured
// solverr.Error and the layer above escalates instead of silently degrading.
// See DESIGN.md, "Failure semantics".

// linearLadder adapts the iterative Krylov solvers to newton.LinearSolveErr
// with escalation: recycled GMRESDR first, deflation-free GMRES on failure,
// and a sparse direct factorization as the last rung. A failed rung is
// reported, never handed to Newton as a partial iterate.
//
// The operator is matrix-free; its assembly callback emits the same entries
// sparsely when (and only when) the direct rung needs a factorization, so
// even total escalation stays far from the O(n³) dense wall the matrix-free
// path exists to avoid.
//
// The ladder is persistent (one per assembler/solve): the Krylov workspace,
// the recycler and the sparse factors (including the symbolic pattern) are
// pooled across solves, so the unarmed hot path allocates nothing after
// warmup.
type linearLadder struct {
	op      krylov.Operator
	asm     func(tr *sparse.Triplet) // sparse assembly for the direct rung
	prec    krylov.Preconditioner
	tol     float64
	rec     *krylov.Recycler // nil when recycling is off
	spare   bool             // a handed-off space survives the next refresh
	ws      *krylov.Workspace
	trip    *sparse.Triplet
	slu     *sparse.LU // sparse direct-solve rung; symbolic pattern reused
	restart int        // GMRES restart length
	stats   *Stats
}

// gmresLadderMaxIter bounds each iterative rung, matching the historical
// adapter's budget.
const gmresLadderMaxIter = 400

// Restart sizing: GMRES(50) is plenty at the paper's sizes, but on large
// bordered systems the preconditioners weaken (the t1-averaged JF misses
// ever-stronger waveform-dependent conductance as the circuit grows) and a
// 50-vector cycle stagnates. The restart length therefore scales with the
// operator dimension — an extra basis vector costs O(total) memory, nothing
// next to the dense Jacobian the matrix-free path exists to avoid.
const (
	matFreeRestartMax = 200
	matFreeRestartDiv = 8
)

func matFreeRestart(total int) int {
	r := total / matFreeRestartDiv
	if r < 50 {
		r = 50
	}
	if r > matFreeRestartMax {
		r = matFreeRestartMax
	}
	return r
}

// newLinearLadder builds the ladder of one solve. With recycle set it owns a
// Krylov recycler: the warm carrier's deflation space when it holds one
// (handed off untrusted, so per-cycle true-residual verification guards the
// cross-point staleness, and spared at the first refresh), else a fresh
// trusted space — trusted because refresh and the preconditioner rebuilds
// invalidate it at every operator change, so the exact-space contract holds.
func newLinearLadder(tol float64, recycle bool, warm *WarmStart, stats *Stats) *linearLadder {
	g := &linearLadder{tol: tol, ws: krylov.NewWorkspace(), stats: stats}
	switch {
	case !recycle:
	case warm != nil && warm.Rec != nil && warm.Rec.Size() > 0:
		g.rec, g.spare = warm.Rec.Handoff(), true
	default:
		g.rec = krylov.NewRecycler(0)
		g.rec.Trusted = true
	}
	return g
}

// refresh marks a fresh linearization. The recycled deflation space is exact
// only for the operator it was harvested from, and its directions amplify
// like 1/θ_min, so even a small Jacobian drift can turn them harmful: it is
// dropped here, and pays only inside Newton's factorization-reuse windows
// (within a step, and across steps in ChordNewton mode) where the operator
// holds still. The one exception is a space handed off from a neighboring
// sweep point: it survives its first linearization under true-residual
// verification, which is exactly the window where cross-point recycling
// pays.
func (g *linearLadder) refresh() {
	if g.spare {
		g.spare = false
		return
	}
	g.rec.Invalidate()
}

// reset points the ladder at a matrix-free operator and its preconditioner;
// asm emits the operator's entries into a triplet when the direct rung needs
// a factorization.
func (g *linearLadder) reset(op krylov.Operator, prec krylov.Preconditioner, asm func(tr *sparse.Triplet)) {
	g.op = op
	g.asm = asm
	g.prec = prec
	g.restart = matFreeRestart(op.Dim())
}

// note classifies one iterative-rung failure into the stats.
func (g *linearLadder) note(err error) {
	if solverr.IsKind(err, solverr.KindBreakdown) {
		g.stats.GMRESBreakdowns++
	} else {
		g.stats.GMRESStagnations++
	}
}

// SolveErr runs the ladder: GMRESDR → deflation-free GMRES → sparse LU.
// A rung that fails is counted, the next one starts from scratch, and only
// when every rung has failed does the (structured, trail-carrying) error
// reach Newton.
func (g *linearLadder) SolveErr(b, x []float64) error {
	g.stats.GMRESSolves++
	la.Fill(x, 0)
	opt := krylov.Options{Tol: g.tol, Prec: g.prec, MaxIter: gmresLadderMaxIter, Restart: g.restart, Work: g.ws}
	if opt.MaxIter < 2*opt.Restart {
		// Keep at least two full cycles available at enlarged restart lengths.
		opt.MaxIter = 2 * opt.Restart
	}
	res, err := krylov.GMRESDR(g.op, b, x, opt, g.rec)
	g.stats.GMRESMatVecs += res.MatVecs
	if err == nil {
		return nil
	}
	g.note(err)
	firstErr := err

	// Rung 2: deflation-free GMRES. The carried deflation space (if any)
	// participated in the failure, so it is discarded, and the restart runs
	// the plain recurrence from a zero guess.
	g.stats.LinearGMRESRescues++
	g.rec.Invalidate()
	la.Fill(x, 0)
	res, err = krylov.GMRES(g.op, b, x, opt)
	g.stats.GMRESMatVecs += res.MatVecs
	if err == nil {
		return nil
	}
	g.note(err)
	secondErr := err

	// Rung 3: a sparse direct factorization — the rung of last resort before
	// Newton-level rescue, trading factorization work for a guaranteed
	// direction whenever the Jacobian is nonsingular.
	g.stats.LinearLURescues++
	g.stats.LinearSparseLURescues++
	if ferr := g.sparseFactor(); ferr != nil {
		e := solverr.Wrap(propagateLadderKind(ferr), "core.linear", ferr).
			WithMsg("linear ladder exhausted (gmresdr: %v; gmres: %v)", firstErr, secondErr)
		e.Attempt("gmresdr").Attempt("gmres").Attempt("sparse-lu")
		return e
	}
	g.slu.Solve(b, x)
	return nil
}

// sparseFactor assembles the current operator sparsely — exactly the entries
// its Apply evaluates — and (re)factors it, reusing the symbolic pattern when
// the structure is unchanged.
func (g *linearLadder) sparseFactor() error {
	n := g.op.Dim()
	if g.trip == nil || g.trip.Rows != n {
		g.trip = sparse.NewTriplet(n, n)
	}
	g.trip.Reset()
	g.asm(g.trip)
	csr := g.trip.ToCSR()
	if g.slu != nil && g.slu.N() == n {
		err := g.slu.Refactor(csr)
		if err == nil {
			return nil
		}
		if !errors.Is(err, sparse.ErrPatternChanged) {
			return err
		}
	}
	slu, err := sparse.FactorLU(csr)
	if err != nil {
		return err
	}
	g.slu = slu
	return nil
}

// Solve satisfies the legacy newton.LinearSolve interface; Newton prefers
// SolveErr, so this path only serves callers that cannot observe errors.
func (g *linearLadder) Solve(b, x []float64) { _ = g.SolveErr(b, x) }

// reportRecycler copies the recycler's lifetime counters into the stats.
func (g *linearLadder) reportRecycler() {
	if g.rec != nil {
		g.stats.RecycleHits = g.rec.Hits
		g.stats.RecycleHarvests = g.rec.Harvests
		g.stats.RecycleInvalidations = g.rec.Invalidations
	}
}

// propagateLadderKind keeps the direct rung's classification (singular,
// bad-input) when it has one.
func propagateLadderKind(err error) solverr.Kind {
	if k := solverr.KindOf(err); k != solverr.KindUnknown {
		return k
	}
	return solverr.KindSingular
}

// rescueRung names a rung of the nonlinear ladder; rung 1 is the caller's
// first-choice solve.
type rescueRung int

const (
	rungFullNewton   rescueRung = iota + 2 // Jacobian refreshed every iteration
	rungDampedNewton                       // twice the budget, a much deeper line search
	rungContinuation                       // source stepping in the inputs
)

// nonlinearLadder escalates a failed first-choice Newton solve through full
// Newton, deep damped Newton and source-stepping continuation, each from the
// first attempt's starting iterate. The caller's hooks carry what differs
// between the envelope step and the global quasiperiodic solve: which state a
// rung must not inherit from the failed attempt, and how the inputs blend
// during continuation. Hooks are built once per assembler or solve, so a
// converged first attempt costs nothing beyond the start-iterate copy.
type nonlinearLadder struct {
	stats *Stats
	// chord marks a first attempt that reused factorizations: the full-Newton
	// rung differs from it, and the trail names it "chord". Otherwise the
	// first attempt already was full Newton, and that rung is skipped.
	chord bool
	base  newton.Options // rescue-rung options: a fresh Jacobian every iteration
	z0    []float64      // the starting iterate every rung restarts from
	// restart prepares rung r: it drops the solver state r must not inherit
	// and, before continuation, snapshots the inputs blend walks between.
	restart func(r rescueRung)
	blend   func(lambda float64) // inputs at continuation parameter λ; 1 is the truth
	restore func()               // puts the true inputs back exactly
}

// solve runs the first attempt with first and escalates on failure. Every
// attempt's Newton work is added to the stats; the returned Result sums them.
// The error is the last rung's, unwrapped (see exhausted); a cancellation
// stops the ladder at once.
func (l *nonlinearLadder) solve(prob newton.Problem, z []float64, first newton.Options) (newton.Result, error) {
	copy(l.z0, z)
	var total newton.Result
	add := func(r newton.Result) {
		total.Iterations += r.Iterations
		total.JacobianEvals += r.JacobianEvals
		total.JacobianReuses += r.JacobianReuses
		total.ResidualF, total.Converged = r.ResidualF, r.Converged
		l.stats.NewtonIterTotal += r.Iterations
		l.stats.JacobianEvals += r.JacobianEvals
		l.stats.JacobianReuses += r.JacobianReuses
	}
	r, err := newton.Solve(prob, z, first)
	add(r)
	for rung := rungFullNewton; rung <= rungContinuation; rung++ {
		if err == nil || solverr.IsKind(err, solverr.KindCanceled) {
			break
		}
		if rung == rungFullNewton && !l.chord {
			continue
		}
		l.restart(rung)
		copy(z, l.z0)
		opt := l.base
		switch rung {
		case rungFullNewton:
			l.stats.FullNewtonRescues++
			r, err = newton.Solve(prob, z, opt)
		case rungDampedNewton:
			l.stats.DampedNewtonRescues++
			opt.Damping = true
			opt.MaxIter *= 2
			opt.MaxHalves = 30
			r, err = newton.Solve(prob, z, opt)
		case rungContinuation:
			l.stats.ContinuationRescues++
			opt.Damping = true
			r, err = newton.Homotopy(func(lambda float64) newton.Problem {
				eval := func(zz, f []float64) error {
					l.blend(lambda)
					return prob.Eval(zz, f)
				}
				return newton.Problem{N: prob.N, Eval: eval, Jacobian: prob.Jacobian}
			}, z, opt)
			l.restore()
		}
		add(r)
	}
	return total, err
}

// exhausted wraps the error of a ladder that failed every rung, classified
// (stagnation unless the cause says otherwise) and carrying the trail.
func (l *nonlinearLadder) exhausted(err error, stage string, res newton.Result) *solverr.Error {
	k := solverr.KindOf(err)
	if k == solverr.KindUnknown {
		k = solverr.KindStagnation
	}
	e := solverr.Wrap(k, stage, err).WithResidual(res.ResidualF)
	if l.chord {
		e.Attempt("chord")
	}
	e.Attempt("full-newton").Attempt("damped-newton").Attempt("continuation")
	return e
}

// lerp writes (1−λ)·a + λ·b into dst.
func lerp(dst, a, b []float64, lambda float64) {
	for i := range dst {
		dst[i] = (1-lambda)*a[i] + lambda*b[i]
	}
}

// checkState rejects non-finite solver states at a stage boundary with a
// diagnostic naming the offending unknown. stage is dotted-path style.
func checkState(stage string, x []float64) error {
	if i := solverr.FirstNonFinite(x); i >= 0 {
		return solverr.New(solverr.KindNonFinite, stage,
			"state became non-finite (%v)", x[i]).WithUnknown(i)
	}
	return nil
}
