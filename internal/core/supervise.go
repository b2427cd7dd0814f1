package core

import (
	"errors"

	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/solverr"
	"repro/internal/sparse"
)

// This file holds the Newton machinery every grid solve shares: the grid
// solver (the linear path, the nonlinear rescue ladder and the checks on a
// converged iterate), the linear escalation ladder of the matrix-free path,
// and the Stats both result types report. The paper leaves the per-step
// nonlinear solve open ("any numerical method ... such as Newton-Raphson or
// continuation", §4.1); supervision is what makes that freedom safe at
// scale — a failed rung reports a structured solverr.Error and the layer
// above escalates instead of silently degrading. See DESIGN.md, "Failure
// semantics".

// linearLadder adapts the iterative Krylov solver to newton.LinearSolveErr
// with escalation: GMRES first, and a sparse direct factorization when it
// fails. A failed rung is reported, never handed to Newton as a partial
// iterate.
//
// The operator is matrix-free; it emits the same entries sparsely when (and
// only when) the direct rung needs a factorization, so even total
// escalation stays far from the O(n³) dense wall the matrix-free path
// exists to avoid.
//
// The ladder is persistent (one per grid solver): the Krylov workspace
// and the sparse factors (including the symbolic pattern) are pooled across
// solves, so the unarmed hot path allocates nothing after warmup.
type linearLadder struct {
	op      *SpectralOp
	prec    krylov.Preconditioner
	ws      *krylov.Workspace
	trip    *sparse.Triplet
	slu     *sparse.LU // sparse direct-solve rung; symbolic pattern reused
	restart int        // GMRES restart length
	stats   *Stats
}

// gmresTol is the relative residual the iterative rung solves to, and
// gmresLadderMaxIter bounds it, matching the historical adapter's budget.
const (
	gmresTol           = 1e-10
	gmresLadderMaxIter = 400
)

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
	return min(max(total/matFreeRestartDiv, 50), matFreeRestartMax)
}

// reset points the ladder at a matrix-free operator and its preconditioner.
func (g *linearLadder) reset(op *SpectralOp, prec krylov.Preconditioner) {
	g.op = op
	g.prec = prec
	g.restart = matFreeRestart(op.Dim())
}

// SolveErr runs the ladder: GMRES → sparse LU. A failed GMRES solve is
// counted and the direct rung starts from scratch; only when it fails too
// does the (structured, trail-carrying) error reach Newton.
func (g *linearLadder) SolveErr(b, x []float64) error {
	g.stats.GMRESSolves++
	la.Fill(x, 0)
	opt := krylov.Options{Tol: gmresTol, Prec: g.prec, MaxIter: gmresLadderMaxIter, Restart: g.restart, Work: g.ws}
	if opt.MaxIter < 2*opt.Restart {
		// Keep at least two full cycles available at enlarged restart lengths.
		opt.MaxIter = 2 * opt.Restart
	}
	res, err := krylov.GMRES(g.op, b, x, opt)
	g.stats.GMRESMatVecs += res.MatVecs
	if err == nil {
		return nil
	}
	if solverr.IsKind(err, solverr.KindBreakdown) {
		g.stats.GMRESBreakdowns++
	} else {
		g.stats.GMRESStagnations++
	}

	// Rung 2: a sparse direct factorization — the rung of last resort before
	// Newton-level rescue, trading factorization work for a guaranteed
	// direction whenever the Jacobian is nonsingular.
	g.stats.LinearLURescues++
	g.stats.LinearSparseLURescues++
	if ferr := g.sparseFactor(); ferr != nil {
		e := solverr.Wrap(kindOr(ferr, solverr.KindSingular), "core.linear", ferr).
			WithMsg("linear ladder exhausted (gmres: %v)", err)
		e.Attempt("gmres").Attempt("sparse-lu")
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
	g.op.assembleSparse(g.trip)
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

// kindOr returns err's classification, or def when it has none.
func kindOr(err error, def solverr.Kind) solverr.Kind {
	if k := solverr.KindOf(err); k != solverr.KindUnknown {
		return k
	}
	return def
}

// gridSolver is the Newton driver under every grid solve: the steps of one
// envelope run, or one quasiperiodic solve. It owns what they share — the
// linear path (the dense LU, or the grid's matrix-free operator under the
// linear ladder), one newton.Problem, the nonlinear rescue ladder and the
// checks on a converged iterate — and leaves the driver its own parts: the
// row scales, the preconditioner, the envelope's cross-step chord gates and
// the inputs continuation starts from.
type gridSolver struct {
	g     *grid
	stats *Stats
	stage string // the stage its failures name
	prob  newton.Problem
	ws    *newton.Workspace
	// rescue is the rescue rungs' options: a fresh Jacobian every iteration.
	rescue newton.Options

	lu  *la.LU        // the dense path's factors; nil on the matrix-free path
	lad *linearLadder // the matrix-free path's ladder
	// prec returns the driver's preconditioner for the operator just rebuilt
	// (matrix-free path only).
	prec func() (krylov.Preconditioner, error)
	// Each line's ω and the inputs at the last linearization, which the
	// envelope's cross-step chord gate compares against.
	omegaLin, usLin []float64

	z0 []float64 // the starting iterate every rung restarts from
	// startInputs fills u0, the inputs continuation starts from (λ = 0);
	// the ladder walks them to the true inputs, snapshot in uTrue.
	startInputs func(dst []float64)
	u0, uTrue   []float64
}

// newGridSolver builds the solver of grid g: dense when g assembles a dense
// Jacobian, matrix-free otherwise. rescue is the driver's Newton options,
// which the rescue rungs run with.
func newGridSolver(g *grid, stats *Stats, stage string, rescue newton.Options,
	prec func() (krylov.Preconditioner, error), startInputs func(dst []float64)) *gridSolver {
	dim := g.nx + g.lines
	ws := newton.NewWorkspace(dim)
	rescue.JacobianReuse, rescue.Work = false, ws
	s := &gridSolver{
		g: g, stats: stats, stage: stage, ws: ws, rescue: rescue, prec: prec, startInputs: startInputs,
		omegaLin: make([]float64, g.lines),
		usLin:    make([]float64, len(g.us)),
		z0:       make([]float64, dim),
		u0:       make([]float64, len(g.us)),
		uTrue:    make([]float64, len(g.us)),
	}
	if g.jj != nil {
		s.lu = la.NewLU(dim)
	} else {
		s.lad = &linearLadder{ws: krylov.NewWorkspace(), stats: stats}
	}
	s.prob = newton.Problem{N: dim, Eval: g.residual, Jacobian: s.jacobian}
	return s
}

// jacobian linearizes the grid at z: it factors the dense Jacobian, or
// rebuilds the operator's snapshots and device-Jacobian slots — no
// assembly, no factorization — and points the linear ladder at them under
// the driver's preconditioner, which averages or blocks the same slots.
func (s *gridSolver) jacobian(z []float64) (newton.LinearSolve, error) {
	g := s.g
	copy(s.omegaLin, z[g.nx:])
	copy(s.usLin, g.us)
	if s.lu != nil {
		if err := s.lu.FactorInto(g.jacobian(z)); err != nil {
			return nil, err
		}
		return s.lu, nil
	}
	op := g.operator(z)
	prec, err := s.prec()
	if err != nil {
		return nil, err
	}
	s.lad.reset(op, prec)
	return s.lad, nil
}

// rescueRung names a rung of the nonlinear ladder; rung 1 is the driver's
// first-choice solve.
type rescueRung int

const (
	rungFullNewton   rescueRung = iota + 2 // Jacobian refreshed every iteration
	rungDampedNewton                       // twice the budget, a much deeper line search
	rungContinuation                       // source stepping in the inputs
)

// solve runs Newton on the grid from z (updated in place) with the driver's
// first options, and on failure escalates through full Newton (only after a
// chord attempt, first.JacobianReuse), deep damped Newton and
// source-stepping continuation, each from the first attempt's start. A
// rescue drops the factors the first attempt carries (first.Reuse). Every
// attempt's Newton work is added to the stats; the returned Result sums
// them. A cancellation stops the ladder and is returned as Newton reported
// it; any other failure is a *solverr.Error at the solver's stage: the
// exhausted ladder (stagnation unless the cause says otherwise, with the
// trail), or a converged iterate that check rejects.
func (s *gridSolver) solve(z []float64, first newton.Options) (newton.Result, error) {
	g := s.g
	copy(s.z0, z)
	first.Work = s.ws
	chord := first.JacobianReuse
	var total newton.Result
	add := func(r newton.Result) {
		total.Iterations += r.Iterations
		total.JacobianEvals += r.JacobianEvals
		total.JacobianReuses += r.JacobianReuses
		total.ResidualF, total.Converged = r.ResidualF, r.Converged
		s.stats.NewtonIterTotal += r.Iterations
		s.stats.JacobianEvals += r.JacobianEvals
		s.stats.JacobianReuses += r.JacobianReuses
	}
	r, err := newton.Solve(s.prob, z, first)
	add(r)
	for rung := rungFullNewton; rung <= rungContinuation; rung++ {
		if err == nil || solverr.IsKind(err, solverr.KindCanceled) {
			break
		}
		if rung == rungFullNewton && !chord {
			continue
		}
		if first.Reuse != nil {
			first.Reuse.Invalidate()
		}
		copy(z, s.z0)
		opt := s.rescue
		switch rung {
		case rungFullNewton:
			s.stats.FullNewtonRescues++
			r, err = newton.Solve(s.prob, z, opt)
		case rungDampedNewton:
			s.stats.DampedNewtonRescues++
			opt.Damping = true
			opt.MaxIter *= 2
			opt.MaxHalves = 30
			r, err = newton.Solve(s.prob, z, opt)
		case rungContinuation:
			s.stats.ContinuationRescues++
			copy(s.uTrue, g.us)
			s.startInputs(s.u0)
			opt.Damping = true
			r, err = newton.Homotopy(s.blended, z, opt)
			copy(g.us, s.uTrue)
		}
		add(r)
	}
	if err == nil {
		return total, s.check(z)
	}
	if solverr.IsKind(err, solverr.KindCanceled) {
		return total, err
	}
	e := solverr.Wrap(kindOr(err, solverr.KindStagnation), s.stage, err).
		WithResidual(total.ResidualF).WithMsg("nonlinear ladder exhausted")
	if chord {
		e.Attempt("chord")
	}
	return total, e.Attempt("full-newton").Attempt("damped-newton").Attempt("continuation")
}

// blended is the continuation problem at λ: the inputs walk from the start
// inputs (λ = 0) to the true ones (λ = 1), walking the solution across
// instead of jumping.
func (s *gridSolver) blended(lambda float64) newton.Problem {
	eval := func(z, f []float64) error {
		lerp(s.g.us, s.u0, s.uTrue, lambda)
		return s.g.residual(z, f)
	}
	return newton.Problem{N: s.prob.N, Eval: eval, Jacobian: s.prob.Jacobian}
}

// lerp writes (1−λ)·a + λ·b into dst.
func lerp(dst, a, b []float64, lambda float64) {
	for i := range dst {
		dst[i] = (1-lambda)*a[i] + lambda*b[i]
	}
}

// check rejects a converged iterate that is no usable state: a non-finite
// unknown, or a line whose ω is not positive.
func (s *gridSolver) check(z []float64) error {
	if i := solverr.FirstNonFinite(z); i >= 0 {
		return solverr.New(solverr.KindNonFinite, s.stage,
			"state became non-finite (%v)", z[i]).WithUnknown(i)
	}
	for _, w := range z[s.g.nx:] {
		if w <= 0 {
			return solverr.New(solverr.KindStagnation, s.stage,
				"local frequency went non-positive (ω=%g)", w)
		}
	}
	return nil
}
