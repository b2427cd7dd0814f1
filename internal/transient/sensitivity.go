package transient

import (
	"context"
	"math"

	"repro/internal/dae"
	"repro/internal/la"
	"repro/internal/solverr"
)

// Sensitivity propagates seed, the n×m derivative of a run's start state
// with respect to m parameters, along res — a fixed-step run of sys by
// method, as Simulate stored it — and returns the derivative of the run's
// end state. Each step differentiates its own integration rule
// (stepFormula): with J = dq/dx and G = df/dx at each stored point,
//
//	(a0·J₊/h + fMix·G₊)·S₊ = −(a1·J/h + (1−fMix)·G)·S − a2·J₋/h·S₋,
//
// which for the trapezoidal rule is (J₊/h + G₊/2)·S₊ = (J/h − G/2)·S. One
// factorization per step serves all m columns, so the pass forms a
// monodromy matrix the way Aprille & Trick [AT72] do, without a single
// extra transient. The steps are the stored ones, BDF2's backward-Euler
// bootstrap and a clipped last step included.
//
// With endTime the pass also returns the end-time column: the derivative of
// the end state with respect to the run's end time when the step count
// stays fixed, so every step stretches in proportion. Its right-hand side
// gains (a0·q₊ + a1·q + a2·q₋)/(h·T), T the run's span, and it assumes the
// inputs are frozen in time (autonomous shooting is its one user). Without
// endTime the second result is nil.
//
// The pass is serial: per step it is one n×n factorization and one
// substitution sweep over all columns. ctx is checked before every step.
func Sensitivity(ctx context.Context, sys dae.System, res *Result, method Method, seed *la.Dense, endTime bool) (*la.Dense, []float64, error) {
	if res == nil || len(res.X) < 2 || len(res.T) != len(res.X) {
		return nil, nil, solverr.New(solverr.KindBadInput, "transient.sensitivity", "need a stored run of at least one step")
	}
	n, m := len(res.X[0]), seed.Cols
	if seed.Rows != n {
		return nil, nil, solverr.New(solverr.KindBadInput, "transient.sensitivity", "seed has %d rows, want %d", seed.Rows, n)
	}
	cols := m
	if endTime {
		cols++ // the end-time column, last, starts at zero
	}
	s, sPrev, sNew, rhs := la.NewDense(n, cols), la.NewDense(n, cols), la.NewDense(n, cols), la.NewDense(n, cols)
	for i := 0; i < n; i++ {
		copy(s.Row(i), seed.Row(i))
	}
	u := make([]float64, sys.NumInputs())
	jq, jqPrev, jqNew := la.NewDense(n, n), la.NewDense(n, n), la.NewDense(n, n)
	jf, jfNew := la.NewDense(n, n), la.NewDense(n, n)
	a := la.NewDense(n, n)
	lu := la.NewLU(n)
	var q, qPrev, qNew []float64
	span := res.T[len(res.T)-1] - res.T[0]

	sys.Input(res.T[0], u)
	sys.JQ(res.X[0], jq)
	sys.JF(res.X[0], u, jf)
	if endTime {
		q, qPrev, qNew = make([]float64, n), make([]float64, n), make([]float64, n)
		sys.Q(res.X[0], q)
	}
	for i := 0; i+1 < len(res.X); i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, solverr.Wrap(solverr.KindCanceled, "transient.sensitivity", err).WithStep(i)
		}
		t, h := res.T[i], res.T[i+1]-res.T[i]
		tPrev := 0.0
		if i > 0 {
			tPrev = res.T[i-1]
		}
		fm := stepFormula(method, h, t, tPrev, i > 0)
		x1 := res.X[i+1]
		sys.Input(res.T[i+1], u)
		sys.JQ(x1, jqNew)
		sys.JF(x1, u, jfNew)
		if endTime {
			sys.Q(x1, qNew)
		}
		// Row r of the step matrix and of the right-hand side, both divided
		// by the step matrix row's largest entry: circuit rows span many
		// decades, and equilibrated rows keep partial pivoting honest. Zero
		// Jacobian entries, most of a circuit's, are skipped.
		for r := 0; r < n; r++ {
			ar, jqr, jfr := a.Row(r), jqNew.Row(r), jfNew.Row(r)
			big := 0.0
			for k := range ar {
				ar[k] = fm.a0/h*jqr[k] + fm.fMix*jfr[k]
				big = math.Max(big, math.Abs(ar[k]))
			}
			if big == 0 {
				return nil, nil, solverr.New(solverr.KindSingular, "transient.sensitivity",
					"step matrix row %d is zero at t=%.6g", r, res.T[i+1]).WithUnknown(r).WithStep(i)
			}
			sc := 1 / big
			la.Scal(sc, ar)
			out := rhs.Row(r)
			clear(out)
			jqo, jfo := jq.Row(r), jf.Row(r)
			for k := 0; k < n; k++ {
				v := fm.a1 / h * jqo[k]
				if fm.method == Trap {
					v += (1 - fm.fMix) * jfo[k]
				}
				if v != 0 {
					la.Axpy(-v*sc, s.Row(k), out)
				}
			}
			if fm.a2 != 0 {
				for k, w := range jqPrev.Row(r) {
					if w != 0 {
						la.Axpy(-fm.a2/h*w*sc, sPrev.Row(k), out)
					}
				}
			}
			if endTime { // dh/dT = h/T at a fixed step count
				out[m] += (fm.a0*qNew[r] + fm.a1*q[r] + fm.a2*qPrev[r]) / (h * span) * sc
			}
		}
		if err := lu.FactorInto(a); err != nil {
			return nil, nil, solverr.Wrap(solverr.KindOf(err), "transient.sensitivity", err).
				WithMsg("step matrix at t=%.6g", res.T[i+1]).WithStep(i)
		}
		lu.SolveMatrixInto(rhs, sNew)
		sPrev, s, sNew = s, sNew, sPrev
		jqPrev, jq, jqNew = jq, jqNew, jqPrev
		jf, jfNew = jfNew, jf
		if endTime {
			qPrev, q, qNew = q, qNew, qPrev
		}
	}
	if k := solverr.FirstNonFinite(s.Data); k >= 0 {
		return nil, nil, solverr.New(solverr.KindNonFinite, "transient.sensitivity",
			"sensitivity became non-finite").WithUnknown(k / cols)
	}
	if !endTime {
		return s, nil, nil
	}
	out, dEnd := la.NewDense(n, m), make([]float64, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i), s.Row(i)[:m])
		dEnd[i] = s.At(i, m)
	}
	return out, dEnd, nil
}
