// Package transient implements direct numerical integration of DAE systems
// ("transient simulation" in the paper) with Backward Euler, Trapezoidal
// and BDF2 methods on a fixed time step, and DC operating-point analysis.
// This is the conventional technique the WaMPDE is benchmarked against in
// §5: accurate for short runs but with unbounded phase-error growth on
// oscillators (Figure 12).
package transient

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dae"
	"repro/internal/faultinject"
	"repro/internal/la"
	"repro/internal/newton"
	"repro/internal/solverr"
)

// Method selects the integration formula.
type Method int

// Supported integration methods.
const (
	BE   Method = iota // Backward Euler (order 1, L-stable)
	Trap               // Trapezoidal (order 2, A-stable; the paper's workhorse)
	BDF2               // 2nd-order backward differentiation
)

// String names the method.
func (m Method) String() string {
	switch m {
	case BE:
		return "BE"
	case Trap:
		return "TRAP"
	case BDF2:
		return "BDF2"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a transient run.
type Options struct {
	Method   Method
	H        float64 // fixed step (the last step is shortened to land on t1); required
	MaxSteps int     // default 50e6/(n+1) safeguard
	Newton   newton.Options
	// Ctx, when non-nil, makes the run cancelable: it is checked before every
	// step and once per Newton iteration within a step. On cancellation
	// Simulate returns the partial Result accumulated so far together with a
	// solverr.KindCanceled error.
	Ctx context.Context
}

// Result holds the time points and states of a transient run.
type Result struct {
	T          []float64
	X          [][]float64 // X[i] is the state at T[i]
	Steps      int         // steps taken
	NewtonIter int         // cumulative Newton iterations
}

// At returns the state component k linearly interpolated at time t.
func (r *Result) At(t float64, k int) float64 {
	n := len(r.T)
	if n == 0 {
		return 0
	}
	if t <= r.T[0] {
		return r.X[0][k]
	}
	if t >= r.T[n-1] {
		return r.X[n-1][k]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if r.T[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	w := (t - r.T[lo]) / (r.T[hi] - r.T[lo])
	return (1-w)*r.X[lo][k] + w*r.X[hi][k]
}

// Component extracts the time series of state k.
func (r *Result) Component(k int) []float64 {
	out := make([]float64, len(r.X))
	for i, x := range r.X {
		out[i] = x[k]
	}
	return out
}

// ConverterNewton is the Newton setting for switched-converter transients
// started from an all-zero (algebraically inconsistent) state. The first
// step's residual scales derive from the entry state (|q|/h + |f|), so most
// rows bottom out at the tiny relative floor and the scaled residual hits
// its roundoff plateau near 1e-6 — below the solver default TolF, which
// would report stagnation at t=0. TolF 1e-6 is safely above the plateau,
// and step accuracy is governed by the step size, not the Newton
// tolerance, once the state is consistent.
var ConverterNewton = newton.Options{TolF: 1e-6, MaxIter: 50}

// Simulate integrates sys from x0 at t0 to t1 in steps of Options.H and
// stores every step's state.
func Simulate(sys dae.System, x0 []float64, t0, t1 float64, opt Options) (*Result, error) {
	n := sys.Dim()
	if len(x0) != n {
		return nil, solverr.New(solverr.KindBadInput, "transient", "len(x0)=%d, want %d", len(x0), n)
	}
	if err := solverr.CheckPositive("transient", "Options.H", opt.H); err != nil {
		return nil, err
	}
	if err := solverr.CheckPositive("transient", "t1 − t0", t1-t0); err != nil {
		return nil, err
	}
	if err := solverr.CheckFinite("transient", x0); err != nil {
		return nil, err
	}
	if opt.Ctx != nil && opt.Newton.Ctx == nil {
		opt.Newton.Ctx = opt.Ctx
	}
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 50_000_000 / (n + 1)
	}

	st := &stepper{sys: sys, n: n, opt: opt}
	st.init()

	res := &Result{}
	hist := newHistory(n)
	record := func(t float64, x []float64) {
		res.T = append(res.T, t)
		res.X = append(res.X, hist.row(x))
	}

	t := t0
	x := append([]float64(nil), x0...)
	record(t, x)
	h := opt.H
	// The point before t, for BDF2 (set once the first step lands).
	xPrev := make([]float64, n)
	var tPrev float64
	havePrev := false

	endTol := 1e-12 * (t1 - t0)
	xNew := make([]float64, n)
	for t1-t > endTol && res.Steps < opt.MaxSteps {
		if opt.Ctx != nil {
			if cerr := opt.Ctx.Err(); cerr != nil {
				return res, solverr.Wrap(solverr.KindCanceled, "transient", cerr).WithStep(res.Steps)
			}
		}
		if t+h > t1 {
			h = t1 - t
		}
		copy(xNew, x)
		iters, err := st.step(t, h, x, xPrev, tPrev, havePrev, xNew)
		res.NewtonIter += iters
		if err != nil {
			if solverr.IsKind(err, solverr.KindCanceled) {
				return res, err
			}
			k := solverr.KindOf(err)
			if k == solverr.KindUnknown {
				k = solverr.KindStagnation
			}
			return res, solverr.Wrap(k, "transient", err).
				WithMsg("step at t=%.6g h=%.3g failed", t, h).WithStep(res.Steps)
		}
		if i := solverr.FirstNonFinite(xNew); i >= 0 {
			return res, solverr.New(solverr.KindNonFinite, "transient",
				"state became non-finite at t=%.6g (%v)", t+h, xNew[i]).WithUnknown(i).WithStep(res.Steps)
		}
		copy(xPrev, x)
		tPrev = t
		havePrev = true
		t += h
		copy(x, xNew)
		res.Steps++
		record(t, x)
	}
	if t1-t > endTol {
		return res, solverr.New(solverr.KindBudget, "transient",
			"step budget (%d) exhausted at t=%.6g", opt.MaxSteps, t).WithStep(res.Steps)
	}
	return res, nil
}

// stepper holds scratch space for implicit steps. All per-step and
// per-Newton-iteration buffers live here (including the residual/Jacobian
// scratch the eval closures use, the Newton workspace and the LU
// factorization slot), so the integration loop itself allocates nothing:
// the arena history rows are the only storage that grows with the run.
type stepper struct {
	sys dae.System
	n   int
	opt Options

	u      []float64
	uOld   []float64
	qOld   []float64
	qPrv   []float64
	fOld   []float64
	fEntry []float64
	qTmp   []float64
	fTmp   []float64
	scale  []float64
	jq     *la.Dense
	jf     *la.Dense
	jac    *la.Dense
	lu     *la.LU
	nws    *newton.Workspace
	prob   newton.Problem

	// The step's integration rule and size, read by the eval/jacobian
	// closures in prob (set by step before each Newton solve).
	fm formula
	h  float64
}

func (st *stepper) init() {
	n := st.n
	st.u = make([]float64, st.sys.NumInputs())
	st.uOld = make([]float64, st.sys.NumInputs())
	st.qOld = make([]float64, n)
	st.qPrv = make([]float64, n)
	st.fOld = make([]float64, n)
	st.fEntry = make([]float64, n)
	st.qTmp = make([]float64, n)
	st.fTmp = make([]float64, n)
	st.scale = make([]float64, n)
	st.jq = la.NewDense(n, n)
	st.jf = la.NewDense(n, n)
	st.jac = la.NewDense(n, n)
	st.lu = la.NewLU(n)
	st.nws = newton.NewWorkspace(n)
	st.prob = newton.Problem{
		N:    n,
		Eval: st.evalResidual,
		Jacobian: func(x []float64) (newton.LinearSolve, error) {
			st.sys.JQ(x, st.jq)
			st.sys.JF(x, st.u, st.jf)
			for r := 0; r < n; r++ {
				row := st.jac.Row(r)
				jqRow := st.jq.Row(r)
				jfRow := st.jf.Row(r)
				for c := 0; c < n; c++ {
					row[c] = (st.fm.a0/st.h*jqRow[c] + st.fm.fMix*jfRow[c]) / st.scale[r]
				}
			}
			if err := st.lu.FactorInto(st.jac); err != nil {
				return nil, err
			}
			return st.lu, nil
		},
	}
}

// evalResidual is the implicit-step residual the Newton iteration solves,
// using only stepper-owned scratch.
func (st *stepper) evalResidual(x, f []float64) error {
	faultinject.FireSlow()
	st.sys.Q(x, st.qTmp)
	st.sys.F(x, st.u, st.fTmp)
	for i := 0; i < st.n; i++ {
		f[i] = (st.fm.a0*st.qTmp[i]+st.fm.a1*st.qOld[i]+st.fm.a2*st.qPrv[i])/st.h + st.fm.fMix*st.fTmp[i]
		if st.fm.method == Trap {
			f[i] += (1 - st.fm.fMix) * st.fOld[i]
		}
		f[i] /= st.scale[i]
	}
	return nil
}

// formula is one implicit step's integration rule: the state x₊ after a
// step of size h from x (and x₋, the point before x) solves
//
//	(a0·q(x₊) + a1·q(x) + a2·q(x₋))/h + fMix·f(x₊, u₊) + (1−fMix)·f(x, u) = 0,
//
// where the last term is present for the trapezoidal rule only. Simulate's
// steps and Sensitivity's pass both take their weights from stepFormula, so
// the integration formula lives in one place.
type formula struct {
	method           Method // BE on BDF2's bootstrap step
	a0, a1, a2, fMix float64
}

// stepFormula returns the rule method applies to a step of size h from t;
// tPrev is the point before t when havePrev is set.
func stepFormula(method Method, h, t, tPrev float64, havePrev bool) formula {
	if method == BDF2 && !havePrev {
		method = BE // bootstrap the multistep formula
	}
	switch method {
	case Trap:
		return formula{method: Trap, a0: 1, a1: -1, fMix: 0.5} // (q-qold)/h = -(f+fold)/2
	case BDF2:
		r := h / (t - tPrev)
		return formula{method: BDF2, a0: (1 + 2*r) / (1 + r), a1: -(1 + r), a2: r * r / (1 + r), fMix: 1}
	default:
		return formula{method: BE, a0: 1, a1: -1, fMix: 1}
	}
}

// step solves the implicit equations for the state at t+h into xNew
// (which enters holding the predictor/old state).
func (st *stepper) step(t, h float64, xOld, xPrev []float64, tPrev float64, havePrev bool, xNew []float64) (int, error) {
	sys, n := st.sys, st.n
	tNew := t + h
	sys.Input(tNew, st.u)
	sys.Q(xOld, st.qOld)

	st.fm = stepFormula(st.opt.Method, h, t, tPrev, havePrev)
	st.h = h
	if st.fm.method == Trap {
		sys.Input(t, st.uOld)
		sys.F(xOld, st.uOld, st.fOld)
	}
	if st.fm.method == BDF2 {
		sys.Q(xPrev, st.qPrv)
	}

	// Per-row residual scales from the entry state: circuit rows can span
	// many orders of magnitude (charges vs mechanical momenta), so Newton's
	// tolerance must act relatively per row.
	scale := st.scale
	{
		sys.F(xOld, st.u, st.fEntry)
		for i := 0; i < n; i++ {
			scale[i] = math.Abs(st.qOld[i])/h + math.Abs(st.fEntry[i])
		}
		smax := 0.0
		for _, s := range scale {
			if s > smax {
				smax = s
			}
		}
		floor := 1e-9 * smax
		if floor == 0 {
			floor = 1
		}
		for i := range scale {
			if scale[i] < floor {
				scale[i] = floor
			}
		}
	}

	nopt := st.opt.Newton
	nopt.Work = st.nws
	resN, err := newton.Solve(st.prob, xNew, nopt)
	return resN.Iterations, err
}

// gminMax is the conductance DCOperatingPoint's gmin stepping starts from.
const gminMax = 1e-3

// DCOperatingPoint solves f(x, u(t0)) = 0. If the direct Newton solve fails
// it falls back to gmin-stepping continuation: f(x) + g·x = 0 with g ramped
// from gminMax to 0.
func DCOperatingPoint(sys dae.System, t0 float64, x []float64) error {
	n := sys.Dim()
	if len(x) != n {
		return solverr.New(solverr.KindBadInput, "transient.dc", "len(x)=%d, want %d", len(x), n)
	}
	u := make([]float64, sys.NumInputs())
	sys.Input(t0, u)

	mk := func(g float64) newton.Problem {
		return newton.DenseProblem(n,
			func(x, f []float64) error {
				sys.F(x, u, f)
				for i := range f {
					f[i] += g * x[i]
				}
				return nil
			},
			func(x []float64, j *la.Dense) error {
				sys.JF(x, u, j)
				for i := 0; i < n; i++ {
					j.Add(i, i, g)
				}
				return nil
			})
	}
	nopt := newton.Options{Damping: true}
	if _, err := newton.Solve(mk(0), x, nopt); err == nil {
		return nil
	}
	// Gmin stepping: λ=0 -> g=gminMax, λ=1 -> g=0.
	_, err := newton.Homotopy(func(lambda float64) newton.Problem {
		return mk(gminMax * (1 - lambda))
	}, x, nopt)
	if err != nil {
		k := solverr.KindOf(err)
		if k == solverr.KindUnknown {
			k = solverr.KindStagnation
		}
		e := solverr.Wrap(k, "transient.dc", err).WithMsg("DC operating point failed")
		e.Attempt("newton").Attempt("gmin-stepping")
		return e
	}
	return nil
}
