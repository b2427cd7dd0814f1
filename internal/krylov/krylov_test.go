package krylov

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

func randomSPDish(rng *rand.Rand, n int) *la.Dense {
	a := la.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(2*n))
	}
	return a
}

// randSPDish builds a well-conditioned unsymmetric test matrix: diagonally
// dominant with random off-diagonal coupling, the same shape of system the
// WaMPDE Jacobian produces after preconditioning.
func randSPDish(n int, seed int64) *la.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Set(i, j, 4+rng.Float64())
			} else {
				m.Set(i, j, 0.5*rng.NormFloat64()/float64(n))
			}
		}
	}
	return m
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func residual(a Operator, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.Apply(x, r)
	la.Sub(r, b, r)
	return la.Norm2(r) / (1 + la.Norm2(b))
}

func TestGMRESSolvesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 30
	a := DenseOp{randomSPDish(rng, n)}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(a, b, x, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("residual %v", r)
	}
}

func TestGMRESRestartedConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 40
	a := DenseOp{randomSPDish(rng, n)}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(a, b, x, Options{Tol: 1e-10, Restart: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || residual(a, x, b) > 1e-8 {
		t.Fatalf("restarted GMRES failed: %+v residual %v", res, residual(a, x, b))
	}
}

func TestGMRESMatchesDirectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := randomSPDish(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xd, err := la.SolveDense(m, b)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		if _, err := GMRES(DenseOp{m}, b, x, Options{Tol: 1e-13}); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xd[i]) > 1e-8*(1+math.Abs(xd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := DenseOp{la.Identity(3)}
	x := []float64{5, 5, 5}
	res, err := GMRES(a, make([]float64, 3), x, Options{})
	if err != nil || !res.Converged {
		t.Fatalf("zero RHS: %v %+v", err, res)
	}
	if la.Norm2(x) != 0 {
		t.Fatal("solution of Ax=0 should be 0")
	}
}

// TestGMRESZeroRHSDiscardsGuess checks the b=0 fast path on a random
// operator zeroes a non-zero initial iterate without applying the operator.
func TestGMRESZeroRHSDiscardsGuess(t *testing.T) {
	n := 8
	m := randSPDish(n, 7)
	x := randVec(n, 8) // non-zero initial guess must be discarded
	res, err := GMRES(DenseOp{M: m}, make([]float64, n), x, Options{})
	if err != nil || !res.Converged {
		t.Fatalf("zero RHS: %+v err=%v", res, err)
	}
	for i, xi := range x {
		if xi != 0 {
			t.Fatalf("zero RHS: x[%d]=%g, want 0", i, xi)
		}
	}
	if res.MatVecs != 0 {
		t.Errorf("zero RHS cost %d matvecs, want 0", res.MatVecs)
	}
}

// TestGMRESMatchesDenseLU checks GMRES against the dense-LU oracle on a
// family of random systems, from the trivial n=1 up to one larger than the
// default restart length.
func TestGMRESMatchesDenseLU(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 60} {
		m := randSPDish(n, int64(100+n))
		b := randVec(n, int64(200+n))
		want, err := la.SolveDense(m.Clone(), b)
		if err != nil {
			t.Fatalf("n=%d: LU oracle failed: %v", n, err)
		}
		x := make([]float64, n)
		res, err := GMRES(DenseOp{M: m}, b, x, Options{Tol: 1e-12})
		if err != nil || !res.Converged {
			t.Fatalf("n=%d: GMRES did not converge: %+v err=%v", n, res, err)
		}
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-8*(1+math.Abs(want[i])) {
				t.Errorf("n=%d: component %d deviates from LU oracle by %g", n, i, d)
			}
		}
	}
}

// TestGMRESHappyBreakdown drives the solver with a RHS that spans an exact
// low-dimensional invariant subspace, so the Arnoldi recurrence terminates
// (happy breakdown) before the restart length is reached.
func TestGMRESHappyBreakdown(t *testing.T) {
	// Diagonal operator, b supported on two entries: the Krylov space closes
	// after two vectors and the solution there is exact.
	n := 10
	m := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, float64(i+1))
	}
	b := make([]float64, n)
	b[2], b[7] = 1, -3
	x := make([]float64, n)
	res, err := GMRES(DenseOp{M: m}, b, x, Options{Tol: 1e-13, Restart: n})
	if err != nil || !res.Converged {
		t.Fatalf("no convergence through happy breakdown: %+v err=%v", res, err)
	}
	if res.Iterations > 3 {
		t.Errorf("expected breakdown after ~2 Arnoldi steps, took %d", res.Iterations)
	}
	if d := math.Abs(x[2]-1.0/3.0) + math.Abs(x[7]+3.0/8.0); d > 1e-12 {
		t.Errorf("solution error %g after breakdown", d)
	}
}

// TestGMRESStagnation uses the cyclic shift operator, for which GMRES makes
// no progress until the full space is built; a tight MaxIter must surface
// ErrNoConvergence with the best iterate and honest counters.
func TestGMRESStagnation(t *testing.T) {
	n := 30
	m := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, 1)
	}
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)
	res, err := GMRES(DenseOp{M: m}, b, x, Options{Tol: 1e-12, Restart: 5, MaxIter: 12})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v (%+v)", err, res)
	}
	if res.Converged {
		t.Error("Converged=true at stagnation")
	}
	if res.Iterations > 12 {
		t.Errorf("MaxIter=12 exceeded: %d iterations", res.Iterations)
	}
	if res.MatVecs == 0 {
		t.Error("MatVecs not counted")
	}
}

func TestGMRESWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 15
	m := randomSPDish(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	exact, err := la.SolveDense(m, b)
	if err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), exact...)
	res, err := GMRES(DenseOp{m}, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("warm start from exact solution should take 0 iterations, took %d", res.Iterations)
	}
}

func TestGMRESNonConvergenceReported(t *testing.T) {
	// Strongly non-normal system with a tiny iteration budget.
	n := 50
	m := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1e-6)
		if i+1 < n {
			m.Set(i, i+1, 1)
		}
	}
	b := make([]float64, n)
	b[n-1] = 1
	x := make([]float64, n)
	_, err := GMRES(DenseOp{m}, b, x, Options{Tol: 1e-14, MaxIter: 3, Restart: 2})
	if err == nil {
		t.Fatal("expected ErrNoConvergence")
	}
}

func TestBlockJacobiPreconditioner(t *testing.T) {
	// Block-diagonal matrix: block-Jacobi is an exact inverse -> 1 iteration.
	n, bs := 12, 3
	m := la.NewDense(n, n)
	blocks := make([]*la.Dense, 0, n/bs)
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < n; s += bs {
		blk := la.NewDense(bs, bs)
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				v := rng.NormFloat64()
				if i == j {
					v += 5
				}
				m.Set(s+i, s+j, v)
				blk.Set(i, j, v)
			}
		}
		blocks = append(blocks, blk)
	}
	prec, err := NewBlockJacobiFromBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(DenseOp{m}, b, x, Options{Tol: 1e-12, Prec: prec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("block-Jacobi on block-diagonal matrix took %d iterations", res.Iterations)
	}
}

func TestBlockJacobiRejectsBadInput(t *testing.T) {
	if _, err := NewBlockJacobiFromBlocks([]*la.Dense{la.Identity(2), la.NewDense(2, 3)}); err == nil {
		t.Fatal("expected error for a non-square block")
	}
	if _, err := NewBlockJacobiFromBlocks(nil); err == nil {
		t.Fatal("expected error for no blocks")
	}
	if _, err := NewBlockJacobiFromBlocks([]*la.Dense{la.NewDense(2, 2)}); err == nil {
		t.Fatal("expected error for a singular block")
	}
}

// gmresUnfused is GMRES with modified Gram–Schmidt as it was before the
// fused sweep: a separate la.Dot and la.Axpy per basis vector. It is the
// oracle the fused GMRES must reproduce bit for bit.
func gmresUnfused(a Operator, b, x []float64, opt Options) (Result, error) {
	n := a.Dim()
	opt = opt.withDefaults(n)
	m := opt.Restart
	ws := opt.Work
	ws.ensure(n, m)
	ws.hist = ws.hist[:0]
	pb := ws.pb
	opt.Prec.Precondition(b, pb)
	bnorm := la.Norm2(pb)
	if bnorm == 0 {
		la.Fill(x, 0)
		return Result{Converged: true}, nil
	}
	r, pr, w := ws.r, ws.pr, ws.w
	v, h := ws.v, ws.h
	cs, sn := ws.cs, ws.sn
	g, ym := ws.g, ws.ym
	total, mv := 0, 0
	res := math.Inf(1)
	for total < opt.MaxIter {
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
			for i := 0; i <= k; i++ {
				hik := la.Dot(w, v[i])
				h.Set(i, k, hik)
				la.Axpy(-hik, v[i], w)
			}
			wn := la.Norm2(w)
			h.Set(k+1, k, wn)
			if wn > 1e-300 {
				la.Copy(v[k+1], w)
				la.Scal(1/wn, v[k+1])
			}
			for i := 0; i < k; i++ {
				t1 := cs[i]*h.At(i, k) + sn[i]*h.At(i+1, k)
				t2 := -sn[i]*h.At(i, k) + cs[i]*h.At(i+1, k)
				h.Set(i, k, t1)
				h.Set(i+1, k, t2)
			}
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
	return Result{Iterations: total, Residual: res, MatVecs: mv}, ErrNoConvergence
}

// diagPrec is a Jacobi preconditioner, z = r / d.
type diagPrec []float64

func (d diagPrec) Precondition(r, z []float64) {
	for i, di := range d {
		z[i] = r[i] / di
	}
}

// TestGMRESMatchesUnfusedOracle checks the fused Gram–Schmidt sweep
// against gmresUnfused: x, Residual, Iterations, MatVecs, convergence and
// the per-restart residual history must all be bitwise equal, through
// restarts, a happy breakdown and a stagnation.
func TestGMRESMatchesUnfusedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	restarted := la.NewDense(40, 40)
	for i := range restarted.Data {
		restarted.Data[i] = 0.1 * rng.NormFloat64()
	}
	dg := make(diagPrec, 40)
	for i := range dg {
		restarted.Add(i, i, 1+rng.Float64())
		dg[i] = restarted.At(i, i)
	}
	diag := la.NewDense(10, 10)
	for i := 0; i < 10; i++ {
		diag.Set(i, i, float64(i+1))
	}
	breakdownRHS := make([]float64, 10)
	breakdownRHS[2], breakdownRHS[7] = 1, -3
	shift := la.NewDense(30, 30)
	for i := 0; i < 30; i++ {
		shift.Set(i, (i+1)%30, 1)
	}
	shiftRHS := make([]float64, 30)
	shiftRHS[0] = 1
	for _, c := range []struct {
		name     string
		m        *la.Dense
		b, guess []float64
		opt      Options
		restarts bool // the solve needs more than one cycle
	}{
		{"restart", restarted, randVec(40, 12), randVec(40, 13), Options{Tol: 1e-13, Restart: 6, Prec: dg}, true},
		{"happy breakdown", diag, breakdownRHS, make([]float64, 10), Options{Tol: 1e-13, Restart: 10}, false},
		{"stagnation", shift, shiftRHS, make([]float64, 30), Options{Tol: 1e-12, Restart: 5, MaxIter: 12}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			op := DenseOp{M: c.m}
			ws, wsOracle := NewWorkspace(), NewWorkspace()
			x := append([]float64(nil), c.guess...)
			xOracle := append([]float64(nil), c.guess...)
			opt, optOracle := c.opt, c.opt
			opt.Work, optOracle.Work = ws, wsOracle
			res, err := GMRES(op, c.b, x, opt)
			want, wantErr := gmresUnfused(op, c.b, xOracle, optOracle)
			if (err == nil) != (wantErr == nil) || res.Converged != want.Converged ||
				res.Iterations != want.Iterations || res.MatVecs != want.MatVecs ||
				math.Float64bits(res.Residual) != math.Float64bits(want.Residual) {
				t.Fatalf("fused %+v (err %v), oracle %+v (err %v)", res, err, want, wantErr)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(xOracle[i]) {
					t.Fatalf("x[%d] = %v, oracle %v", i, x[i], xOracle[i])
				}
			}
			if res.Converged == (c.name == "stagnation") {
				t.Fatalf("converged %v: the case does not exercise what it is named for", res.Converged)
			}
			if len(ws.hist) != len(wsOracle.hist) || (len(ws.hist) > 1) != c.restarts {
				t.Fatalf("residual history %v, oracle %v", ws.hist, wsOracle.hist)
			}
			for i := range ws.hist {
				if math.Float64bits(ws.hist[i]) != math.Float64bits(wsOracle.hist[i]) {
					t.Fatalf("residual history %v, oracle %v", ws.hist, wsOracle.hist)
				}
			}
		})
	}
}
