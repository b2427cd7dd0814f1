package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

func denseFromCSR(c *CSR) *la.Dense {
	d := la.NewDense(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			d.Add(i, c.ColIdx[k], c.Val[k])
		}
	}
	return d
}

func randomSparse(rng *rand.Rand, n int, density float64) *Triplet {
	t := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < density {
				v := rng.NormFloat64()
				if i == j {
					v += float64(n) // diagonal dominance
				}
				t.Add(i, j, v)
			}
		}
	}
	return t
}

func TestTripletDuplicatesSummed(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 0, 2.5)
	tr.Add(1, 1, -1)
	c := tr.ToCSR()
	if c.At(0, 0) != 3.5 {
		t.Fatalf("duplicate sum = %v, want 3.5", c.At(0, 0))
	}
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", c.NNZ())
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTriplet(2, 2).Add(2, 0, 1)
}

func TestTripletReset(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Reset()
	if tr.NNZ() != 0 {
		t.Fatal("Reset should clear entries")
	}
	tr.Add(1, 1, 2)
	if tr.ToCSR().At(1, 1) != 2 {
		t.Fatal("triplet unusable after Reset")
	}
}

func TestCSRAtMissingIsZero(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 2, 7)
	c := tr.ToCSR()
	if c.At(0, 2) != 7 || c.At(0, 1) != 0 || c.At(2, 2) != 0 {
		t.Fatal("At lookup wrong")
	}
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		tr := randomSparse(rng, n, 0.3)
		c := tr.ToCSR()
		d := denseFromCSR(c)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ys := make([]float64, n)
		yd := make([]float64, n)
		c.MulVec(x, ys)
		d.MulVec(x, yd)
		for i := range ys {
			if math.Abs(ys[i]-yd[i]) > 1e-12*(1+math.Abs(yd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCSRTranspose(t *testing.T) {
	tr := NewTriplet(2, 3)
	tr.Add(0, 2, 5)
	tr.Add(1, 0, -2)
	tt := tr.ToCSR().Transpose()
	if tt.Rows != 3 || tt.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tt.Rows, tt.Cols)
	}
	if tt.At(2, 0) != 5 || tt.At(0, 1) != -2 {
		t.Fatal("transpose entries wrong")
	}
}

func TestCSRDiagonal(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 1)
	tr.Add(2, 2, 3)
	d := tr.ToCSR().Diagonal()
	if d[0] != 1 || d[1] != 0 || d[2] != 3 {
		t.Fatalf("Diagonal = %v", d)
	}
}

func TestSparseLUSolveKnown(t *testing.T) {
	tr := NewTriplet(3, 3)
	// Same system as the dense LU test.
	vals := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	for i := range vals {
		for j := range vals[i] {
			tr.Add(i, j, vals[i][j])
		}
	}
	f, err := FactorLU(tr.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	f.Solve([]float64{8, -11, -3}, x)
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-11 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSparseLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		c := randomSparse(rng, n, 0.25).ToCSR()
		lu, err := FactorLU(c)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		lu.Solve(b, x)
		r := make([]float64, n)
		c.MulVec(x, r)
		la.Axpy(-1, b, r)
		return la.Norm2(r) <= 1e-9*(1+la.Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	c := randomSparse(rng, n, 0.3).ToCSR()
	d := denseFromCSR(c)
	slu, err := FactorLU(c)
	if err != nil {
		t.Fatal(err)
	}
	dlu, err := la.FactorLU(d)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xs := make([]float64, n)
	xd := make([]float64, n)
	slu.Solve(b, xs)
	dlu.Solve(b, xd)
	for i := range xs {
		if math.Abs(xs[i]-xd[i]) > 1e-9*(1+math.Abs(xd[i])) {
			t.Fatalf("sparse vs dense solve differ at %d: %v vs %v", i, xs[i], xd[i])
		}
	}
}

func TestSparseLUNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row pivot.
	tr := NewTriplet(2, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(1, 1, 1)
	lu, err := FactorLU(tr.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	lu.Solve([]float64{3, 5}, x)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestSparseLUSingular(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 0, 2) // column 1 is structurally empty
	if _, err := FactorLU(tr.ToCSR()); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSparseLUAliasedSolve(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Add(0, 0, 4)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(1, 1, 3)
	c := tr.ToCSR()
	lu, err := FactorLU(c)
	if err != nil {
		t.Fatal(err)
	}
	bx := []float64{1, 2}
	lu.Solve(bx, bx)
	r := make([]float64, 2)
	c.MulVec(bx, r)
	if math.Abs(r[0]-1) > 1e-12 || math.Abs(r[1]-2) > 1e-12 {
		t.Fatalf("aliased solve residual: %v", r)
	}
}

func TestSparseLUFillIn(t *testing.T) {
	tr := NewTriplet(3, 3)
	for i := 0; i < 3; i++ {
		tr.Add(i, i, 2)
	}
	lu, err := FactorLU(tr.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal matrix: no fill, so L stores nothing below its implied unit
	// diagonal and U one entry per column.
	for j := 0; j < 3; j++ {
		if len(lu.lcol[j]) != 0 || len(lu.ucol[j]) != 1 {
			t.Fatalf("column %d stores %d L and %d U entries, want 0 and 1", j, len(lu.lcol[j]), len(lu.ucol[j]))
		}
	}
	if lu.N() != 3 {
		t.Fatalf("N = %d", lu.N())
	}
}
