package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

func randomWellConditioned(rng *rand.Rand, n int) *Dense {
	// Random matrix with boosted diagonal: comfortably nonsingular.
	a := NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := DenseFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randomWellConditioned(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		r := make([]float64, n)
		a.MulVec(x, r)
		Axpy(-1, b, r)
		return Norm2(r) <= 1e-9*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLUSolveAliased(t *testing.T) {
	a := DenseFromRows([][]float64{{4, 1}, {1, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	bx := []float64{1, 2}
	f.Solve(bx, bx) // solve in place
	r := make([]float64, 2)
	a.MulVec(bx, r)
	if !almostEq(r[0], 1, 1e-12) || !almostEq(r[1], 2, 1e-12) {
		t.Fatalf("aliased solve residual wrong: %v", r)
	}
}

func TestLUSingularDetected(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	_, err := FactorLU(a)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLUNonSquareRejected(t *testing.T) {
	if _, err := FactorLU(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := DenseFromRows([][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, -4}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -24, 1e-12) {
		t.Fatalf("Det = %v, want -24", f.Det())
	}
}

func TestLUDetPermutationSign(t *testing.T) {
	// A permutation-like matrix forces pivoting; det must account for signs.
	a := DenseFromRows([][]float64{{0, 1}, {1, 0}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -1, 1e-14) {
		t.Fatalf("Det of row swap = %v, want -1", f.Det())
	}
}

func TestLUPivotingHandlesZeroDiagonal(t *testing.T) {
	a := DenseFromRows([][]float64{{0, 1}, {1, 1}})
	x, err := SolveDense(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// x2 = 3, x1 = 2
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomWellConditioned(rng, 6)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-9) {
				t.Fatalf("A*inv(A)[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestSolveMatrixMultipleRHS(t *testing.T) {
	a := DenseFromRows([][]float64{{3, 1}, {1, 2}})
	b := DenseFromRows([][]float64{{9, 4}, {8, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveMatrix(b)
	prod := a.Mul(x)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(prod.At(i, j), b.At(i, j), 1e-12) {
				t.Fatalf("residual at %d,%d", i, j)
			}
		}
	}
}

func TestCondEstimate(t *testing.T) {
	f, err := FactorLU(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if c := f.CondEstimate(); !almostEq(c, 1, 1e-14) {
		t.Fatalf("cond(I) estimate = %v, want 1", c)
	}
	ill := DenseFromRows([][]float64{{1, 0}, {0, 1e-12}})
	f2, err := FactorLU(ill)
	if err != nil {
		t.Fatal(err)
	}
	if c := f2.CondEstimate(); c < 1e11 {
		t.Fatalf("cond estimate too small for ill-conditioned matrix: %v", c)
	}
}

func TestLUEmptyMatrix(t *testing.T) {
	f, err := FactorLU(NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 0 {
		t.Fatal("empty factorization should have N()==0")
	}
	if d := f.Det(); d != 1 {
		t.Fatalf("det of empty matrix = %v, want 1", d)
	}
}

func TestLUHilbertAccuracy(t *testing.T) {
	// Hilbert 5x5 is mildly ill-conditioned; solution should still be decent.
	n := 5
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
		}
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i + 1)
	}
	b := make([]float64, n)
	a.MulVec(xTrue, b)
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-7 {
			t.Fatalf("Hilbert solve x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

// TestFactorIntoReuse refactors several matrices through one workspace and
// checks the factors match a fresh FactorLU bitwise, and that the refactor +
// solve path allocates nothing once warm.
func TestFactorIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 23
	ws := NewLU(n)
	a := NewDense(n, n)
	b := make([]float64, n)
	x := make([]float64, n)
	xFresh := make([]float64, n)
	for trial := 0; trial < 5; trial++ {
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if err := ws.FactorInto(a); err != nil {
			t.Fatalf("trial %d: FactorInto: %v", trial, err)
		}
		fresh, err := FactorLU(a)
		if err != nil {
			t.Fatalf("trial %d: FactorLU: %v", trial, err)
		}
		for i := range fresh.lu.Data {
			if ws.lu.Data[i] != fresh.lu.Data[i] {
				t.Fatalf("trial %d: reused factors differ bitwise at %d", trial, i)
			}
		}
		ws.Solve(b, x)
		fresh.Solve(b, xFresh)
		for i := range x {
			if x[i] != xFresh[i] {
				t.Fatalf("trial %d: reused solve differs at %d", trial, i)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.FactorInto(a); err != nil {
			t.Fatal(err)
		}
		ws.Solve(b, x)
	})
	if allocs > 0 {
		t.Errorf("FactorInto+Solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFactorIntoWorkerCountInvariant factors one n = 200 matrix — four
// panel trailing updates, each split into row chunks over the pool — at 1,
// 2 and 8 workers and requires bitwise-identical factors and pivots.
func TestFactorIntoWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewDense(200, 200)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	defer par.SetWorkers(par.SetWorkers(1))
	ref := NewLU(a.Rows)
	if err := ref.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		got := NewLU(a.Rows)
		if err := got.FactorInto(a); err != nil {
			t.Fatal(err)
		}
		for i, v := range ref.lu.Data {
			if got.lu.Data[i] != v {
				t.Fatalf("workers=%d: factor entry %d = %v, want bitwise %v", w, i, got.lu.Data[i], v)
			}
		}
		for i, p := range ref.piv {
			if got.piv[i] != p {
				t.Fatalf("workers=%d: piv[%d] = %d, want %d", w, i, got.piv[i], p)
			}
		}
		if got.signP != ref.signP {
			t.Fatalf("workers=%d: permutation sign %d, want %d", w, got.signP, ref.signP)
		}
	}
}

// TestCLUFactorIntoReuse mirrors TestFactorIntoReuse for the complex LU used
// by the recycled harmonic preconditioner.
func TestCLUFactorIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 9
	ws := NewCLU(n)
	a := NewCDense(n, n)
	b := make([]complex128, n)
	x := make([]complex128, n)
	xFresh := make([]complex128, n)
	for trial := 0; trial < 5; trial++ {
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if err := ws.FactorInto(a); err != nil {
			t.Fatalf("trial %d: FactorInto: %v", trial, err)
		}
		fresh, err := FactorCLU(a)
		if err != nil {
			t.Fatalf("trial %d: FactorCLU: %v", trial, err)
		}
		ws.Solve(b, x)
		fresh.Solve(b, xFresh)
		for i := range x {
			if x[i] != xFresh[i] {
				t.Fatalf("trial %d: reused complex solve differs at %d", trial, i)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.FactorInto(a); err != nil {
			t.Fatal(err)
		}
		ws.Solve(b, x)
	})
	if allocs > 0 {
		t.Errorf("CLU FactorInto+Solve allocates %.1f objects/op, want 0", allocs)
	}
}
