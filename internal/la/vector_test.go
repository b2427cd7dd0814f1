package la

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotOrthogonal(t *testing.T) {
	if Dot([]float64{1, 0}, []float64{0, 1}) != 0 {
		t.Fatal("orthogonal dot should be 0")
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2AgainstNaive(t *testing.T) {
	f := func(xs []float64) bool {
		naive := 0.0
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true // skip inputs where the naive sum itself overflows
			}
			naive += v * v
		}
		return almostEq(Norm2(xs), math.Sqrt(naive), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	x := []float64{1e300, 1e300}
	want := 1e300 * math.Sqrt2
	if got := Norm2(x); math.IsInf(got, 0) || !almostEq(got, want, 1e-12) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
}

func TestNormInf(t *testing.T) {
	if NormInf([]float64{1, -7, 3}) != 7 {
		t.Fatal("NormInf wrong")
	}
	if NormInf(nil) != 0 {
		t.Fatal("NormInf(nil) should be 0")
	}
}

func TestAxpyScalCopyFill(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy got %v", y)
	}
	Scal(0.5, y)
	if y[0] != 6 || y[1] != 12 {
		t.Fatalf("Scal got %v", y)
	}
	dst := make([]float64, 2)
	Copy(dst, y)
	if dst[1] != 12 {
		t.Fatal("Copy failed")
	}
	Fill(dst, -1)
	if dst[0] != -1 || dst[1] != -1 {
		t.Fatal("Fill failed")
	}
}

func TestSubAddTo(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	d := make([]float64, 2)
	Sub(d, a, b)
	if d[0] != 3 || d[1] != 4 {
		t.Fatalf("Sub got %v", d)
	}
	Sub(d, d, b) // in place
	if d[0] != 1 || d[1] != 1 {
		t.Fatalf("in-place Sub got %v", d)
	}
}
