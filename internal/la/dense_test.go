package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDenseSetAtAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 2.5)
	m.Add(0, 1, 0.5)
	if got := m.At(0, 1); got != 3.0 {
		t.Fatalf("At(0,1) = %v, want 3", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Fatalf("fresh entry = %v, want 0", got)
	}
}

func TestDenseFromRowsAndRow(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	r := m.Row(1)
	r[1] = 9
	if m.At(1, 1) != 9 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestDenseFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	DenseFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMulVec(t *testing.T) {
	m := Identity(4)
	x := []float64{1, -2, 3, -4}
	y := make([]float64, 4)
	m.MulVec(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I*x != x at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestMulMatchesManual(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := DenseFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(3, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	tt := a.T().T()
	for i := range a.Data {
		if tt.Data[i] != a.Data[i] {
			t.Fatal("(A^T)^T != A")
		}
	}
}

func TestTransposeMulVecConsistency(t *testing.T) {
	// Property: y^T (A x) == x^T (A^T y).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(6), 2+rng.Intn(6)
		a := NewDense(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, m)
		a.MulVec(x, ax)
		aty := make([]float64, n)
		a.T().MulVec(y, aty)
		return almostEq(Dot(y, ax), Dot(x, aty), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 5)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestScaleAddScaled(t *testing.T) {
	a := Identity(3)
	b := Identity(3)
	a.Scale(2)
	a.AddScaled(3, b)
	if a.At(1, 1) != 5 {
		t.Fatalf("2I + 3I diagonal = %v, want 5", a.At(1, 1))
	}
	if a.At(0, 1) != 0 {
		t.Fatal("off-diagonal should stay 0")
	}
}

func TestNormFroAndMaxAbs(t *testing.T) {
	a := DenseFromRows([][]float64{{3, -4}, {0, 0}})
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v, want 4", a.MaxAbs())
	}
}

func TestZeroAndCopyFrom(t *testing.T) {
	a := Identity(3)
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Fatal("Zero did not clear matrix")
	}
	b := Identity(3)
	a.CopyFrom(b)
	if a.At(2, 2) != 1 {
		t.Fatal("CopyFrom failed")
	}
}

func TestDenseString(t *testing.T) {
	s := Identity(2).String()
	if len(s) == 0 {
		t.Fatal("String should render something")
	}
}
