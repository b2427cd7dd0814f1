// Package shooting computes periodic steady states of DAE systems by the
// shooting method — one of the boundary-value prior arts the paper reviews
// in §2 ([AT72, Ske80, TKW95]). Both the forced variant (known period) and
// the autonomous variant (unknown period, with a phase condition) are
// provided; the latter supplies the WaMPDE's natural initial condition
// ("the solution of (12) with no forcing", §4.1).
package shooting

import (
	"context"
	"math"

	"repro/internal/dae"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/solverr"
	"repro/internal/transient"
)

// Options tunes the shooting iteration.
type Options struct {
	PointsPerPeriod int // transient resolution, default 256
	Method          transient.Method
	MaxIter         int     // Newton iterations, default 30
	Tol             float64 // residual tolerance on ||Φ_T(x)−x||, default 1e-8
	FrozenInputTime float64 // autonomous runs freeze inputs at this time
	// Ctx, when non-nil, makes the shooting solve cancelable: it reaches the
	// transits, their sensitivity passes and the Newton iteration, which
	// return a solverr.KindCanceled error when the context expires.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.PointsPerPeriod <= 0 {
		o.PointsPerPeriod = 256
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 30
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// PSS is a periodic steady state.
type PSS struct {
	X0    []float64         // state at the period start
	T     float64           // period
	Orbit *transient.Result // one period of the converged solution

	sys    dae.System // the system Orbit integrates (inputs frozen if autonomous)
	method transient.Method
}

// Monodromy returns the state-transition matrix over one period, dΦ_T/dx0,
// from one sensitivity pass along the stored orbit. The pass is seeded on
// the consistent subspace (consistentSeed), so a DAE's algebraic directions
// read zero.
func (p *PSS) Monodromy() (*la.Dense, error) {
	if p.sys == nil || p.Orbit == nil {
		return nil, solverr.New(solverr.KindBadInput, "shooting", "no orbit available")
	}
	m, _, err := transient.Sensitivity(context.TODO(), p.sys, p.Orbit, p.method, consistentSeed(p.sys, p.X0), false)
	return m, err
}

// Floquet returns the Floquet (characteristic) multipliers, the eigenvalues
// of the monodromy matrix, sorted by descending magnitude.
func (p *PSS) Floquet() ([]complex128, error) {
	m, err := p.Monodromy()
	if err != nil {
		return nil, err
	}
	return la.Eigenvalues(m)
}

// frozenInput wraps a system, freezing its inputs at a fixed time — the
// "b(t) constant" condition for unforced-oscillator analysis.
type frozenInput struct {
	dae.System
	at float64
}

func (f frozenInput) Input(t float64, u []float64) { f.System.Input(f.at, u) }

// Freeze returns sys with inputs pinned to their value at time at.
func Freeze(sys dae.System, at float64) dae.System { return frozenInput{sys, at} }

// transit integrates sys over one period and keeps the last run, keyed by
// the exact bits of its start state and period. newton.Solve evaluates F at
// an iterate before it asks for J there, so the Jacobian's sensitivity pass
// and the converged orbit reuse the residual's run instead of integrating
// again.
type transit struct {
	sys dae.System
	opt Options
	key []float64 // the start state, then the period, of res
	res *transient.Result
}

func (c *transit) run(x0 []float64, T float64) (*transient.Result, error) {
	if c.res != nil && sameBits(c.key[:len(x0)], x0) && math.Float64bits(c.key[len(x0)]) == math.Float64bits(T) {
		return c.res, nil
	}
	c.res = nil
	res, err := transient.Simulate(c.sys, x0, 0, T, transient.Options{
		Method: c.opt.Method,
		H:      T / float64(c.opt.PointsPerPeriod),
		Ctx:    c.opt.Ctx,
	})
	if err != nil {
		return nil, err
	}
	c.key = append(append(c.key[:0], x0...), T)
	c.res = res
	return res, nil
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// end returns the last state of a run.
func end(res *transient.Result) []float64 { return res.X[len(res.X)-1] }

// consistentSeed returns the n×n seed of a sensitivity pass from x0: its
// columns span the start perturbations that keep a DAE's algebraic equations
// satisfied to first order. Algebraic variables are the identically zero
// columns of dq/dx at x0, algebraic equations its zero rows. When the two
// counts match and the block JF_aa of df/dx on them factors, differential
// column j is e_j − JF_aa⁻¹·JF_aj and each algebraic column is zero. An ODE
// has no algebraic states, so its seed is the identity, as is the fallback.
//
// The identity would not do for a DAE: the trapezoidal rule rings ±δ on an
// algebraic state, that ringing returns after an even number of steps, and
// the monodromy gains an exact unit column, so M − I turns singular.
func consistentSeed(sys dae.System, x0 []float64) *la.Dense {
	n := len(x0)
	seed := la.Identity(n)
	jq := la.NewDense(n, n)
	sys.JQ(x0, jq)
	var eqs, vars []int
	algebraic := make([]bool, n)
	for i := 0; i < n; i++ {
		zeroRow, zeroCol := true, true
		for j := 0; j < n; j++ {
			zeroRow = zeroRow && jq.At(i, j) == 0
			zeroCol = zeroCol && jq.At(j, i) == 0
		}
		if zeroRow {
			eqs = append(eqs, i)
		}
		if zeroCol {
			vars = append(vars, i)
			algebraic[i] = true
		}
	}
	na := len(vars)
	if na == 0 || na != len(eqs) {
		return seed
	}
	u := make([]float64, sys.NumInputs())
	sys.Input(0, u)
	jf := la.NewDense(n, n)
	sys.JF(x0, u, jf)
	jaa := la.NewDense(na, na)
	for r, i := range eqs {
		for c, j := range vars {
			jaa.Set(r, c, jf.At(i, j))
		}
	}
	lu, err := la.FactorLU(jaa)
	if err != nil {
		return seed
	}
	b, w := make([]float64, na), make([]float64, na)
	for j := 0; j < n; j++ {
		if algebraic[j] {
			seed.Set(j, j, 0)
			continue
		}
		for r, i := range eqs {
			b[r] = jf.At(i, j)
		}
		lu.Solve(b, w)
		for c, a := range vars {
			seed.Set(a, j, -w[c])
		}
	}
	return seed
}

// Forced computes the periodic steady state of a T-periodic forced system
// by Newton on the shooting map Φ_T(x0) − x0 = 0, starting from x0. Each
// iteration integrates one period and differentiates it in one sensitivity
// pass.
func Forced(sys dae.System, x0 []float64, T float64, opt Options) (*PSS, error) {
	opt = opt.withDefaults()
	n := sys.Dim()
	if len(x0) != n {
		return nil, solverr.New(solverr.KindBadInput, "shooting.forced", "len(x0)=%d, want %d", len(x0), n)
	}
	if T <= 0 {
		return nil, solverr.New(solverr.KindBadInput, "shooting.forced", "period must be positive")
	}
	tr := &transit{sys: sys, opt: opt}
	x := append([]float64(nil), x0...)
	p := newton.Problem{
		N: n,
		Eval: func(x, f []float64) error {
			res, err := tr.run(x, T)
			if err != nil {
				return err
			}
			la.Sub(f, end(res), x)
			return nil
		},
		Jacobian: func(x []float64) (newton.LinearSolve, error) {
			res, err := tr.run(x, T)
			if err != nil {
				return nil, err
			}
			j, _, err := transient.Sensitivity(opt.Ctx, sys, res, opt.Method, consistentSeed(sys, x), false)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				j.Add(i, i, -1)
			}
			return la.FactorLU(j)
		},
	}
	if _, err := newton.Solve(p, x, newton.Options{MaxIter: opt.MaxIter, TolF: opt.Tol, Damping: true, Ctx: opt.Ctx}); err != nil {
		return nil, solverr.Wrap(solverr.KindOf(err), "shooting.forced", err).WithMsg("forced PSS failed")
	}
	orbit, err := tr.run(x, T)
	if err != nil {
		return nil, err
	}
	return &PSS{X0: x, T: T, Orbit: orbit, sys: sys, method: opt.Method}, nil
}

// Autonomous computes the periodic steady state and period of an unforced
// oscillator. Inputs are frozen at opt.FrozenInputTime. The phase ambiguity
// is removed by anchoring the oscillation variable: x0[k] is held at its
// initial-guess value (which must lie within the limit cycle's swing).
// x0 and T0 are the initial guesses. A period that collapses onto the start
// state (no orbit sample leaves x0 by more than opt.Tol) is rejected as
// KindStagnation: it meets Φ_T(x0) = x0 without being an oscillation.
func Autonomous(sys dae.Autonomous, x0 []float64, T0 float64, opt Options) (*PSS, error) {
	opt = opt.withDefaults()
	n := sys.Dim()
	if len(x0) != n {
		return nil, solverr.New(solverr.KindBadInput, "shooting.autonomous", "len(x0)=%d, want %d", len(x0), n)
	}
	if T0 <= 0 {
		return nil, solverr.New(solverr.KindBadInput, "shooting.autonomous", "period guess must be positive")
	}
	frozen := Freeze(sys, opt.FrozenInputTime)
	tr := &transit{sys: frozen, opt: opt}
	k := sys.OscVar()
	anchor := x0[k]

	// Unknowns z = [x0; T].
	z := make([]float64, n+1)
	copy(z, x0)
	z[n] = T0

	eval := func(z, f []float64) error {
		T := z[n]
		if T <= 0 {
			return solverr.New(solverr.KindStagnation, "shooting.autonomous", "period went non-positive (T=%g)", T)
		}
		res, err := tr.run(z[:n], T)
		if err != nil {
			return err
		}
		la.Sub(f[:n], end(res), z[:n])
		f[n] = z[k] - anchor
		return nil
	}
	// The Jacobian [M − I, dΦ/dT; e_kᵀ, 0] comes from one pass along the
	// residual's run; its end-time column is dΦ/dT, since the transit keeps
	// its step count as T moves.
	jac := func(z []float64) (newton.LinearSolve, error) {
		res, err := tr.run(z[:n], z[n])
		if err != nil {
			return nil, err
		}
		m, dT, err := transient.Sensitivity(opt.Ctx, frozen, res, opt.Method, consistentSeed(frozen, z[:n]), true)
		if err != nil {
			return nil, err
		}
		j := la.NewDense(n+1, n+1)
		for i := 0; i < n; i++ {
			copy(j.Row(i), m.Row(i))
			j.Add(i, i, -1)
			j.Set(i, n, dT[i])
		}
		j.Set(n, k, 1)
		return la.FactorLU(j)
	}
	if _, err := newton.Solve(newton.Problem{N: n + 1, Eval: eval, Jacobian: jac}, z,
		newton.Options{MaxIter: opt.MaxIter, TolF: opt.Tol, Damping: true, Ctx: opt.Ctx}); err != nil {
		return nil, solverr.Wrap(solverr.KindOf(err), "shooting.autonomous", err).WithMsg("autonomous PSS failed")
	}
	x := append([]float64(nil), z[:n]...)
	T := z[n]
	orbit, err := tr.run(x, T)
	if err != nil {
		return nil, err
	}
	swing := 0.0
	for _, xs := range orbit.X {
		for i, v := range xs {
			swing = math.Max(swing, math.Abs(v-x[i]))
		}
	}
	if swing <= opt.Tol {
		return nil, solverr.New(solverr.KindStagnation, "shooting.autonomous",
			"period collapsed (T=%g): no orbit sample leaves x0 by more than %g", T, opt.Tol)
	}
	return &PSS{X0: x, T: T, Orbit: orbit, sys: frozen, method: opt.Method}, nil
}
