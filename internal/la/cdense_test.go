package la

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDenseBasics(t *testing.T) {
	m := NewCDense(2, 2)
	m.Set(0, 1, 1+2i)
	m.Add(0, 1, 1i)
	if m.At(0, 1) != 1+3i {
		t.Fatalf("At = %v", m.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 1, 0)
	if m.At(0, 1) != 1+3i {
		t.Fatal("Clone must be deep")
	}
	m.Zero()
	if m.At(0, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestCIdentityMul(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 1+1i)
	a.Set(0, 1, 2)
	a.Set(1, 0, -1i)
	a.Set(1, 1, 3-2i)
	id := NewCDense(2, 2)
	id.Set(0, 0, 1)
	id.Set(1, 1, 1)
	p := a.Mul(id)
	for i := range a.Data {
		if p.Data[i] != a.Data[i] {
			t.Fatal("A*I != A")
		}
	}
}

func TestCLUSolveKnown(t *testing.T) {
	// (1+i) x = 2 -> x = 1 - i
	a := NewCDense(1, 1)
	a.Set(0, 0, 1+1i)
	f, err := FactorCLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 1)
	f.Solve([]complex128{2}, x)
	if cmplx.Abs(x[0]-(1-1i)) > 1e-14 {
		t.Fatalf("x = %v, want 1-i", x[0])
	}
}

func TestCLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := NewCDense(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, complex(float64(n), 0))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		lu, err := FactorCLU(a)
		if err != nil {
			return false
		}
		x := make([]complex128, n)
		lu.Solve(b, x)
		r := make([]complex128, n)
		a.MulVec(x, r)
		for i := range r {
			r[i] -= b[i]
		}
		return CNorm2(r) <= 1e-9*(1+CNorm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := FactorCLU(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCLUPivoting(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1i)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	f, err := FactorCLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 2)
	f.Solve([]complex128{1i, 3}, x)
	// Row 1: x0 = 3; row 0: i*x1 = i -> x1 = 1.
	if cmplx.Abs(x[0]-3) > 1e-14 || cmplx.Abs(x[1]-1) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}
