// Package krylov implements the matrix-free iterative linear solver —
// restarted GMRES(m) — with a block-Jacobi preconditioner.
// Paper §1/§4 (citing Saad): "the use of iterative linear techniques enables
// large systems to be handled efficiently"; GMRES backs the large-system
// path of the WaMPDE Newton iterations.
package krylov

import (
	"errors"
	"math"

	"repro/internal/faultinject"
	"repro/internal/la"
	"repro/internal/solverr"
)

// Operator applies a linear map y = A x. Implemented matrix-free by the
// WaMPDE Jacobian, and by dense matrices via DenseOp.
type Operator interface {
	Dim() int
	Apply(x, y []float64)
}

// Preconditioner applies an approximate inverse z = M^{-1} r.
type Preconditioner interface {
	Precondition(r, z []float64)
}

// identityPrec is the trivial preconditioner.
type identityPrec struct{}

func (identityPrec) Precondition(r, z []float64) { copy(z, r) }

// Identity returns the no-op preconditioner.
func Identity() Preconditioner { return identityPrec{} }

// Options configures an iterative solve.
type Options struct {
	Tol     float64        // relative residual target (default 1e-10)
	MaxIter int            // total iteration cap (default 10*n)
	Restart int            // GMRES restart length m (default min(n, 50))
	Prec    Preconditioner // default Identity()
	// Work, when non-nil, supplies the per-solve buffers (Arnoldi basis,
	// Hessenberg factors, rotation state) so repeated solves of same-shaped
	// systems allocate nothing — the la.NewLU/FactorInto pattern. A nil Work
	// allocates fresh buffers per call. A Workspace is not safe for
	// concurrent use; each solver owns one.
	Work *Workspace
}

// Workspace pools every per-solve buffer GMRES needs. Buffers are sized on
// first use (and resized if the problem shape changes) and then reused
// verbatim: the solves are bitwise identical to fresh allocation because the
// algorithm never reads an entry it did not write this solve — the only
// region read-before-write is the strictly-below-subdiagonal part of the
// Hessenberg factor, which no cycle ever writes, so it keeps the zeros it
// was created with.
type Workspace struct {
	n, m      int
	pb, r, pr []float64
	w         []float64
	v         [][]float64
	h         *la.Dense
	cs, sn    []float64
	g, ym     []float64
	hist      []float64 // per-restart residuals, reused across solves
}

// NewWorkspace returns an empty workspace; buffers are sized lazily on the
// first solve that uses it.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the buffers for an n-dimensional solve with restart length m,
// reallocating only when a dimension changes.
func (ws *Workspace) ensure(n, m int) {
	if ws.n == n && ws.m == m {
		return
	}
	ws.n, ws.m = n, m
	ws.pb = make([]float64, n)
	ws.r = make([]float64, n)
	ws.pr = make([]float64, n)
	ws.w = make([]float64, n)
	ws.v = make([][]float64, m+1)
	for i := range ws.v {
		ws.v[i] = make([]float64, n)
	}
	ws.h = la.NewDense(m+1, m)
	ws.cs = make([]float64, m)
	ws.sn = make([]float64, m)
	ws.g = make([]float64, m+1)
	ws.ym = make([]float64, m)
	ws.hist = ws.hist[:0]
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	if o.Restart <= 0 {
		o.Restart = 50
	}
	if o.Restart > n {
		o.Restart = n
	}
	if o.Prec == nil {
		o.Prec = Identity()
	}
	return o
}

// Result reports convergence data for an iterative solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual estimate
	Converged  bool
	// MatVecs counts operator applications (the dominant cost at scale):
	// one per inner iteration plus one true-residual evaluation per restart
	// cycle.
	MatVecs int
}

// ErrNoConvergence is returned when the iteration cap is reached before the
// tolerance; the best iterate found is still written to x.
var ErrNoConvergence = errors.New("krylov: iteration did not converge")

// GMRES solves A x = b by restarted, left-preconditioned GMRES(m), writing
// the solution into x (whose initial content is the starting guess).
func GMRES(a Operator, b, x []float64, opt Options) (Result, error) {
	n := a.Dim()
	if len(b) != n || len(x) != n {
		return Result{}, solverr.New(solverr.KindBadInput, "krylov.gmres",
			"dims: n=%d len(b)=%d len(x)=%d", n, len(b), len(x))
	}
	opt = opt.withDefaults(n)
	if n == 0 {
		return Result{Converged: true}, nil
	}
	if faultinject.Fire(faultinject.SiteGMRESStagnate) {
		return Result{Residual: math.Inf(1)}, solverr.Wrap(
			solverr.KindStagnation, "krylov.gmres", ErrNoConvergence).
			WithMsg("injected stagnation")
	}
	m := opt.Restart
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(n, m)
	ws.hist = ws.hist[:0]

	// Preconditioned RHS norm for the relative criterion.
	pb := ws.pb
	opt.Prec.Precondition(b, pb)
	bnorm := la.Norm2(pb)
	if bnorm == 0 {
		la.Fill(x, 0)
		return Result{Converged: true}, nil
	}

	r, pr, w := ws.r, ws.pr, ws.w
	v := ws.v
	h := ws.h
	cs, sn := ws.cs, ws.sn
	g, ym := ws.g, ws.ym

	total := 0
	mv := 0
	res := math.Inf(1)
	for total < opt.MaxIter {
		// r = M^{-1}(b - A x)
		a.Apply(x, r)
		mv++
		la.Sub(r, b, r)
		opt.Prec.Precondition(r, pr)
		beta := la.Norm2(pr)
		res = beta / bnorm
		ws.hist = append(ws.hist, res)
		if res <= opt.Tol {
			return Result{Iterations: total, Residual: res, Converged: true, MatVecs: mv}, nil
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		la.Copy(v[0], pr)
		la.Scal(1/beta, v[0])

		k := 0
		for ; k < m && total < opt.MaxIter; k++ {
			total++
			a.Apply(v[k], w)
			mv++
			opt.Prec.Precondition(w, w)
			// Modified Gram-Schmidt, one pass over w per basis vector.
			hik := la.Dot(w, v[0])
			for i := 0; i < k; i++ {
				h.Set(i, k, hik)
				hik = axpyDot(-hik, v[i], w, v[i+1])
			}
			h.Set(k, k, hik)
			la.Axpy(-hik, v[k], w)
			wn := la.Norm2(w)
			h.Set(k+1, k, wn)
			if wn > 1e-300 {
				la.Copy(v[k+1], w)
				la.Scal(1/wn, v[k+1])
			}
			// Apply existing Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t1 := cs[i]*h.At(i, k) + sn[i]*h.At(i+1, k)
				t2 := -sn[i]*h.At(i, k) + cs[i]*h.At(i+1, k)
				h.Set(i, k, t1)
				h.Set(i+1, k, t2)
			}
			// New rotation to zero h(k+1,k).
			d := math.Hypot(h.At(k, k), h.At(k+1, k))
			if d == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k] = h.At(k, k) / d
				sn[k] = h.At(k+1, k) / d
			}
			h.Set(k, k, cs[k]*h.At(k, k)+sn[k]*h.At(k+1, k))
			h.Set(k+1, k, 0)
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			res = math.Abs(g[k+1]) / bnorm
			if res <= opt.Tol || wn <= 1e-300 {
				k++
				break
			}
		}
		// Solve the small triangular system and update x.
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h.At(i, j) * ym[j]
			}
			ym[i] = s / h.At(i, i)
		}
		for i := 0; i < k; i++ {
			la.Axpy(ym[i], v[i], x)
		}
		if res <= opt.Tol {
			return Result{Iterations: total, Residual: res, Converged: true, MatVecs: mv}, nil
		}
	}
	return Result{Iterations: total, Residual: res, Converged: false, MatVecs: mv},
		solverr.Wrap(solverr.KindStagnation, "krylov.gmres", ErrNoConvergence).
			WithMsg("GMRES(%d) hit iteration cap", m).WithIter(total).WithResidual(res).
			WithResidualHistory(append([]float64(nil), ws.hist...))
}

// axpyDot performs w += a·v and returns the dot product of the updated w
// with next, in one pass: each entry of w is updated, then multiplied into
// the sum, so the result is la.Axpy followed by la.Dot bit for bit.
func axpyDot(a float64, v, w, next []float64) float64 {
	w, next = w[:len(v)], next[:len(v)]
	s := 0.0
	for j, vj := range v {
		wj := w[j] + a*vj
		w[j] = wj
		s += wj * next[j]
	}
	return s
}
