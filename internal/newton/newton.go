// Package newton implements the damped Newton–Raphson iteration shared by
// every nonlinear solve in the repository: DC operating points, implicit
// integration steps, shooting, harmonic balance, and the per-step WaMPDE
// systems (paper §4.1: "solved with any numerical method for nonlinear
// equations, such as Newton-Raphson or continuation").
package newton

import (
	"context"
	"errors"
	"math"

	"repro/internal/faultinject"
	"repro/internal/la"
	"repro/internal/solverr"
)

// LinearSolve abstracts the factored linear system used for Newton updates.
// Both *la.LU and *sparse.LU satisfy it, as do GMRES adapters.
type LinearSolve interface {
	Solve(b, x []float64)
}

// LinearSolveErr is the supervised variant of LinearSolve: adapters that can
// fail (iterative solvers, escalation ladders) implement it to surface the
// failure instead of silently handing Newton a garbage direction. Solve
// prefers this interface when the solver provides it.
type LinearSolveErr interface {
	LinearSolve
	SolveErr(b, x []float64) error
}

// Problem defines F(x) = 0.
type Problem struct {
	// N is the number of unknowns.
	N int
	// Eval writes F(x) into f.
	Eval func(x, f []float64) error
	// Jacobian returns a solver for the Jacobian J(x). With default Options
	// it is called once per Newton iteration; with Options.JacobianReuse the
	// chord policy calls it only when a refresh is needed (first iteration
	// with no cached factorization, stall, divergence, or insufficient
	// contraction), reusing the last returned solver otherwise.
	Jacobian func(x []float64) (LinearSolve, error)
}

// Options tunes the iteration.
type Options struct {
	MaxIter   int     // default 50
	TolF      float64 // residual inf-norm target, default 1e-10
	Damping   bool    // enable residual-halving line search
	MaxHalves int     // damping depth, default 10

	// JacobianReuse enables chord (modified-Newton) iteration: the last
	// factorization returned by Problem.Jacobian is reused across iterations
	// — and, when Reuse is set, across Solve calls — for as long as the
	// residual keeps contracting at ReuseContraction per iteration. A stalled
	// or diverging stale-Jacobian iteration triggers a refresh at the current
	// iterate before the next update.
	JacobianReuse bool
	// ReuseContraction is the largest acceptable ratio ||F_new||/||F_old||
	// for an iteration that used a stale Jacobian; above it the factorization
	// is refreshed. Defaults to 0.5. math.Inf(1) never refreshes mid-solve,
	// reproducing a pure per-solve chord iteration.
	ReuseContraction float64
	// Reuse, when non-nil, carries the cached factorization across Solve
	// calls, letting smooth sequences of nearby solves (successive envelope
	// steps) share one factorization. The caller owns invalidation: call
	// ReuseState.Invalidate whenever the underlying system changes shape
	// (e.g. the t2 step size changed), which forces a fresh factorization on
	// the first iteration of the next solve.
	Reuse *ReuseState
	// Work, when non-nil, supplies the iteration scratch so repeated solves
	// of same-sized systems allocate nothing.
	Work *Workspace
	// Ctx, when non-nil, is checked once per iteration; on cancellation the
	// best iterate seen is left in x and Solve returns a KindCanceled error.
	Ctx context.Context
}

// tolX is the relative step size below which an iteration whose residual is
// within 10·TolF counts as converged.
const tolX = 1e-12

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.TolF <= 0 {
		o.TolF = 1e-10
	}
	if o.MaxHalves <= 0 {
		o.MaxHalves = 10
	}
	if o.ReuseContraction <= 0 {
		o.ReuseContraction = 0.5
	}
	return o
}

// ReuseState carries a chord-Newton factorization across Solve calls.
type ReuseState struct {
	lin LinearSolve
}

// Invalidate drops the cached factorization; the next Solve refreshes on its
// first iteration.
func (s *ReuseState) Invalidate() { s.lin = nil }

// Cached reports whether a factorization is currently cached.
func (s *ReuseState) Cached() bool { return s != nil && s.lin != nil }

// Workspace holds the per-solve scratch vectors of a Newton iteration.
type Workspace struct {
	f, fTrial, dx, xTrial, best []float64
	hist                        []float64 // per-iteration ||F||_inf, recycled across solves
}

// NewWorkspace allocates scratch for n-dimensional solves.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

func (w *Workspace) ensure(n int) {
	if cap(w.f) < n {
		w.f = make([]float64, n)
		w.fTrial = make([]float64, n)
		w.dx = make([]float64, n)
		w.xTrial = make([]float64, n)
		w.best = make([]float64, n)
	}
	w.f = w.f[:n]
	w.fTrial = w.fTrial[:n]
	w.dx = w.dx[:n]
	w.xTrial = w.xTrial[:n]
	w.best = w.best[:n]
}

// Result reports the outcome of a Newton solve.
type Result struct {
	Iterations int
	ResidualF  float64 // final ||F||_inf
	Converged  bool
	// JacobianEvals counts calls to Problem.Jacobian; JacobianReuses counts
	// iterations that recycled a stale factorization instead. Without
	// JacobianReuse, JacobianEvals equals the update count and JacobianReuses
	// is zero.
	JacobianEvals  int
	JacobianReuses int
}

// ErrNoConvergence is returned when the iteration budget is exhausted. The
// best iterate seen is left in x.
var ErrNoConvergence = errors.New("newton: iteration did not converge")

// Solve runs damped Newton on p starting from x (updated in place).
func Solve(p Problem, x []float64, opt Options) (Result, error) {
	if len(x) != p.N {
		return Result{}, solverr.New(solverr.KindBadInput, "newton",
			"len(x)=%d, want %d", len(x), p.N)
	}
	opt = opt.withDefaults()
	n := p.N
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace(n)
	} else {
		ws.ensure(n)
	}
	f, fTrial, dx, xTrial := ws.f, ws.fTrial, ws.dx, ws.xTrial
	ws.hist = ws.hist[:0]

	jacEvals, jacReuses := 0, 0
	mk := func(iters int, resF float64, conv bool) Result {
		return Result{Iterations: iters, ResidualF: resF, Converged: conv,
			JacobianEvals: jacEvals, JacobianReuses: jacReuses}
	}

	if err := p.Eval(x, f); err != nil {
		return mk(0, 0, false), solverr.Wrap(propagateKind(err, solverr.KindUnknown), "newton", err).
			WithMsg("initial evaluation")
	}
	normF := la.NormInf(f)
	if faultinject.Fire(faultinject.SiteNewtonFail) {
		return mk(0, normF, false), solverr.Wrap(solverr.KindStagnation, "newton", ErrNoConvergence).
			WithMsg("injected failure").WithResidual(normF)
	}
	best := ws.best
	copy(best, x)
	bestNorm := normF

	var lin LinearSolve
	if opt.JacobianReuse && opt.Reuse != nil {
		lin = opt.Reuse.lin
		defer func() {
			opt.Reuse.lin = lin
		}()
	}
	stale := false // last stale-Jacobian update stalled or under-contracted

	for it := 1; it <= opt.MaxIter; it++ {
		if opt.Ctx != nil {
			select {
			case <-opt.Ctx.Done():
				copy(x, best)
				return mk(it-1, bestNorm, false), solverr.Wrap(
					solverr.KindCanceled, "newton", opt.Ctx.Err()).
					WithIter(it - 1).WithResidual(bestNorm)
			default:
			}
		}
		ws.hist = append(ws.hist, normF)
		if faultinject.Fire(faultinject.SiteNewtonResidualNaN) {
			normF = math.NaN()
		}
		if normF <= opt.TolF {
			return mk(it-1, normF, true), nil
		}
		if math.IsNaN(normF) || math.IsInf(normF, 0) {
			copy(x, best)
			bad := solverr.FirstNonFinite(f)
			return mk(it-1, bestNorm, false), solverr.Wrap(
				solverr.KindNonFinite, "newton", ErrNoConvergence).
				WithMsg("residual became non-finite").WithIter(it - 1).
				WithUnknown(bad).WithResidualHistory(append([]float64(nil), ws.hist...))
		}
		usedStale := false
		if lin == nil || !opt.JacobianReuse || stale {
			fresh, err := p.Jacobian(x)
			if err != nil {
				copy(x, best)
				return mk(it-1, bestNorm, false), solverr.Wrap(
					propagateKind(err, solverr.KindSingular), "newton", err).
					WithMsg("jacobian").WithIter(it - 1).WithResidual(normF)
			}
			lin = fresh
			jacEvals++
			stale = false
		} else {
			usedStale = true
			jacReuses++
		}
		normBefore := normF
		// J dx = F  => x_new = x - dx. Solvers that can fail report it
		// through LinearSolveErr; a failed linear solve aborts the iteration
		// with the cause's classification so the supervisor above can pick
		// the right rescue (refresh, escalate, halve the step).
		if le, ok := lin.(LinearSolveErr); ok {
			if lerr := le.SolveErr(f, dx); lerr != nil {
				copy(x, best)
				return mk(it-1, bestNorm, false), solverr.Wrap(
					propagateKind(lerr, solverr.KindUnknown), "newton", lerr).
					WithMsg("linear solve failed").WithIter(it - 1).WithResidual(normF)
			}
		} else {
			lin.Solve(f, dx)
		}
		if bad := solverr.FirstNonFinite(dx); bad >= 0 {
			copy(x, best)
			return mk(it-1, bestNorm, false), solverr.New(
				solverr.KindNonFinite, "newton",
				"linear solve produced a non-finite direction").
				WithIter(it - 1).WithUnknown(bad).WithResidual(normF)
		}
		step := 1.0
		accepted := false
		for h := 0; ; h++ {
			for i := range x {
				xTrial[i] = x[i] - step*dx[i]
			}
			if err := p.Eval(xTrial, fTrial); err == nil {
				nf := la.NormInf(fTrial)
				if !opt.Damping || nf < normF || nf <= opt.TolF {
					copy(x, xTrial)
					copy(f, fTrial)
					normF = nf
					accepted = true
					break
				}
			}
			if h >= opt.MaxHalves {
				break
			}
			step /= 2
		}
		if !accepted {
			// Take the full step anyway; sometimes the residual must rise
			// transiently (e.g. crossing a device-model knee).
			for i := range x {
				xTrial[i] = x[i] - dx[i]
			}
			if err := p.Eval(xTrial, fTrial); err != nil {
				copy(x, best)
				return mk(it, bestNorm, false), solverr.Wrap(
					solverr.KindStagnation, "newton", ErrNoConvergence).
					WithMsg("evaluation failed at the full step: %v", err).
					WithIter(it).WithResidual(bestNorm)
			}
			copy(x, xTrial)
			copy(f, fTrial)
			normF = la.NormInf(f)
		}
		// Chord staleness policy: a stale-Jacobian update that stalled the
		// line search or failed to contract at the configured rate forces a
		// refresh at the new iterate. An infinite contraction target keeps
		// the factorization for the whole solve.
		if usedStale && !math.IsInf(opt.ReuseContraction, 1) {
			if !accepted || normF > opt.ReuseContraction*normBefore {
				stale = true
			}
		}
		if normF < bestNorm {
			bestNorm = normF
			copy(best, x)
		}
		// Small-step stopping criterion. The residual must still be close
		// to tolerance: with modified (chord) Newton the per-iteration step
		// shrinks linearly and is no proxy for the remaining error.
		if la.NormInf(dx)*step <= tolX*(1+la.NormInf(x)) && normF <= 10*opt.TolF {
			return mk(it, normF, true), nil
		}
	}
	if normF <= opt.TolF {
		return mk(opt.MaxIter, normF, true), nil
	}
	copy(x, best)
	return mk(opt.MaxIter, bestNorm, false), solverr.Wrap(
		solverr.KindStagnation, "newton", ErrNoConvergence).
		WithMsg("no convergence in %d iterations", opt.MaxIter).
		WithIter(opt.MaxIter).WithResidual(bestNorm).
		WithResidualHistory(append([]float64(nil), ws.hist...))
}

// propagateKind reuses the cause's classification when it has one, so e.g. a
// singular-Jacobian error keeps KindSingular through the newton wrapper, and
// falls back to def for plain errors.
func propagateKind(err error, def solverr.Kind) solverr.Kind {
	if k := solverr.KindOf(err); k != solverr.KindUnknown {
		return k
	}
	return def
}

// DenseProblem builds a Problem whose Jacobian is assembled densely and
// factored with LU — the common case for the small-to-medium systems in this
// repository.
func DenseProblem(n int, eval func(x, f []float64) error, jac func(x []float64, j *la.Dense) error) Problem {
	j := la.NewDense(n, n)
	return Problem{
		N:    n,
		Eval: eval,
		Jacobian: func(x []float64) (LinearSolve, error) {
			if err := jac(x, j); err != nil {
				return nil, err
			}
			return la.FactorLU(j)
		},
	}
}

// Homotopy solves F(x; λ=1) = 0 by continuation from an easy problem at
// λ = 0, adapting the λ step: on failure the step halves, on success it
// grows. make(λ) must return the problem at that continuation parameter.
// Used for source-stepping DC operating points of oscillators whose Newton
// basin at full bias is small. A canceled solve is no failed step: x is
// restored to the last accepted λ and the cancellation returned as is.
func Homotopy(make func(lambda float64) Problem, x []float64, opt Options) (Result, error) {
	lambda, step := 0.0, 0.25
	var last Result
	xSave := append([]float64(nil), x...)
	for lambda < 1 {
		next := lambda + step
		if next > 1 {
			next = 1
		}
		res, err := Solve(make(next), x, opt)
		if err != nil {
			copy(x, xSave)
			if solverr.IsKind(err, solverr.KindCanceled) {
				return res, err
			}
			step /= 2
			if step < 1e-6 {
				return res, solverr.Wrap(solverr.KindStagnation, "newton.homotopy", err).
					WithMsg("continuation stalled at λ=%.6f", lambda)
			}
			continue
		}
		lambda = next
		copy(xSave, x)
		last = res
		if step < 0.5 {
			step *= 2
		}
	}
	return last, nil
}
