package krylov

import (
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
