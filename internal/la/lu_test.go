package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/par"
	"repro/internal/solverr"
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

func TestSolveMatrixMultipleRHS(t *testing.T) {
	a := DenseFromRows([][]float64{{3, 1}, {1, 2}})
	b := DenseFromRows([][]float64{{9, 4}, {8, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := NewDense(2, 2)
	f.SolveMatrixInto(b, x)
	prod := a.Mul(x)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(prod.At(i, j), b.At(i, j), 1e-12) {
				t.Fatalf("residual at %d,%d", i, j)
			}
		}
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

// workerSweepN is a size whose first two panels have at least luParRows
// trailing rows, so their trailing updates go to the pool, and which is not
// a multiple of luBlock, so the last panel is narrower than the others.
const workerSweepN = luParRows + 2*luBlock + 1

// TestFactorIntoAllocatesNothing guards the multi-panel paths, which the
// one-panel TestFactorIntoReuse never reaches: a warm refactorization
// allocates nothing at one worker above the pool threshold, or at two
// workers when every trailing update is below it (n = 199).
func TestFactorIntoAllocatesNothing(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{workerSweepN, 1},
		{199, 2},
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		a := randomWellConditioned(rng, tc.n)
		ws := NewLU(tc.n)
		prev := par.SetWorkers(tc.workers)
		allocs := testing.AllocsPerRun(5, func() {
			if err := ws.FactorInto(a); err != nil {
				t.Fatal(err)
			}
		})
		par.SetWorkers(prev)
		if allocs > 0 {
			t.Errorf("n=%d workers=%d: FactorInto allocates %.1f objects/op, want 0",
				tc.n, tc.workers, allocs)
		}
	}
}

// TestFactorIntoWorkerCountInvariant factors one workerSweepN matrix — two
// panel trailing updates split into row chunks over the pool, the rest
// serial — at 1, 2 and 8 workers and requires bitwise-identical factors and
// pivots.
func TestFactorIntoWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewDense(workerSweepN, workerSweepN)
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
		sameFactors(t, fmt.Sprintf("workers=%d", w), got, ref.lu.Data, ref.piv, ref.signP)
	}
}

// sameFactors fails unless f holds exactly the packed factors, pivots and
// permutation sign given, bit for bit.
func sameFactors(t *testing.T, label string, f *LU, lu []float64, piv []int, signP int) {
	t.Helper()
	for i, v := range lu {
		if got := f.lu.Data[i]; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%s: factor entry %d = %v, want bitwise %v", label, i, got, v)
		}
	}
	for i, p := range piv {
		if f.piv[i] != p {
			t.Fatalf("%s: piv[%d] = %d, want %d", label, i, f.piv[i], p)
		}
	}
	if f.signP != signP {
		t.Fatalf("%s: permutation sign %d, want %d", label, f.signP, signP)
	}
}

// oracleLU is textbook column-at-a-time Gaussian elimination with partial
// pivoting: at column k it takes the first row of largest magnitude as the
// pivot, swaps whole rows, stores each multiplier and, unless the
// multiplier is zero, subtracts it times the pivot row from the rest of the
// row. It returns the packed factors, pivots, permutation sign and the
// column of the first zero pivot (-1 if none). FactorInto must reproduce
// all four bit for bit.
func oracleLU(a *Dense) (lu []float64, piv []int, signP, zeroCol int) {
	n := a.Rows
	lu = append([]float64(nil), a.Data...)
	piv = make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	signP = 1
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(lu[i*n+k]) > math.Abs(lu[p*n+k]) {
				p = i
			}
		}
		if lu[p*n+k] == 0 {
			return lu, piv, signP, k
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			signP = -signP
		}
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / lu[k*n+k]
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return lu, piv, signP, -1
}

// oracleInputs returns the matrix families of TestFactorIntoMatchesOracle:
// dense random; circuit-shaped sparse rows of dyadic values, so that
// elimination cancels exactly, with explicit +0 and -0 entries; and rows
// scaled up with the index over a tiny diagonal, so nearly every column
// pivots.
func oracleInputs(rng *rand.Rand, n int) []oracleInput {
	dense := NewDense(n, n)
	for i := range dense.Data {
		dense.Data[i] = rng.NormFloat64()
	}
	sparse := NewDense(n, n)
	vals := []float64{-2, -1, -0.5, 0.5, 1, 2, 4}
	for i := 0; i < n; i++ {
		sparse.Set(i, i, 4+float64(rng.Intn(4)))
		for e := 0; e < 4; e++ {
			j := rng.Intn(n)
			switch e {
			case 0:
				sparse.Set(i, j, math.Copysign(0, -1))
			default:
				sparse.Set(i, j, vals[rng.Intn(len(vals))])
			}
		}
	}
	pivoting := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float64(i+1) * rng.NormFloat64()
			if i == j {
				v *= 1e-6
			}
			pivoting.Set(i, j, v)
		}
	}
	return []oracleInput{{"dense", dense}, {"sparse", sparse}, {"pivoting", pivoting}}
}

type oracleInput struct {
	name string
	a    *Dense
}

// TestFactorIntoMatchesOracle holds the blocked kernel to FactorLU's
// promise: factors, pivots and permutation sign bitwise identical to
// column-at-a-time elimination. The sizes cover one panel (1, 47, 48),
// panel boundaries (49, 97), the serial multi-panel path (199), each side
// of the pool threshold (the first trailing update one row short of
// luParRows, then exactly luParRows) and several pooled panels.
func TestFactorIntoMatchesOracle(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(2))
	sizes := []int{1, 47, 48, 49, 97, 199,
		luParRows + luBlock - 1, luParRows + luBlock, luParRows + 3*luBlock + 5}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, in := range oracleInputs(rng, n) {
			label := fmt.Sprintf("%s n=%d", in.name, n)
			lu, piv, signP, zeroCol := oracleLU(in.a)
			if zeroCol >= 0 {
				t.Fatalf("%s: oracle input is singular at column %d", label, zeroCol)
			}
			f := NewLU(n)
			if err := f.FactorInto(in.a); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameFactors(t, label, f, lu, piv, signP)
		}
	}
}

// TestFactorIntoSingularMatchesOracle builds a matrix whose rows split into
// 70 that span columns 0..70 and the rest, which are zero in those columns,
// then shuffles the rows: elimination must report the zero pivot at column
// 70, in the second panel, after a pooled first trailing update — the same
// column the oracle finds.
func TestFactorIntoSingularMatchesOracle(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(2))
	const c = 70
	n := workerSweepN
	rng := rand.New(rand.NewSource(5))
	a := NewDense(n, n)
	for r, i := range rng.Perm(n) {
		for j := 0; j < n; j++ {
			if r < c || j > c {
				a.Set(i, j, rng.NormFloat64())
			}
		}
	}
	if _, _, _, zeroCol := oracleLU(a); zeroCol != c {
		t.Fatalf("oracle zero pivot at column %d, want %d", zeroCol, c)
	}
	err := NewLU(n).FactorInto(a)
	var se *solverr.Error
	if !errors.As(err, &se) || se.Kind != solverr.KindSingular || !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorInto error %v, want a singular *solverr.Error", err)
	}
	if se.Unknown != c {
		t.Fatalf("zero pivot reported at column %d, want %d (%v)", se.Unknown, c, err)
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
