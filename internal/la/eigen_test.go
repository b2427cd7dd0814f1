package la

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

func TestEigenvaluesDiagonal(t *testing.T) {
	a := DenseFromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 2}})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{real(eig[0]), real(eig[1]), real(eig[2])}
	sort.Float64s(got)
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("eig = %v, want %v", got, want)
		}
	}
}

func TestEigenvaluesRotationComplexPair(t *testing.T) {
	// Rotation by angle θ has eigenvalues e^{±iθ}.
	th := 0.7
	a := DenseFromRows([][]float64{
		{math.Cos(th), -math.Sin(th)},
		{math.Sin(th), math.Cos(th)},
	})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range eig {
		if math.Abs(cmplx.Abs(l)-1) > 1e-10 {
			t.Fatalf("|λ| = %v, want 1", cmplx.Abs(l))
		}
		if math.Abs(math.Abs(imag(l))-math.Sin(th)) > 1e-10 {
			t.Fatalf("imag λ = %v, want ±%v", imag(l), math.Sin(th))
		}
	}
}

func TestEigenvaluesUpperTriangular(t *testing.T) {
	a := DenseFromRows([][]float64{
		{1, 5, -3},
		{0, 4, 2},
		{0, 0, -2},
	})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{real(eig[0]), real(eig[1]), real(eig[2])}
	sort.Float64s(got)
	want := []float64{-2, 1, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("eig = %v want %v", got, want)
		}
	}
}

func TestEigenvaluesTraceDetInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		eig, err := Eigenvalues(a)
		if err != nil {
			t.Fatal(err)
		}
		var sum, prod complex128 = 0, 1
		for _, l := range eig {
			sum += l
			prod *= l
		}
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		f, err := FactorLU(a)
		var det float64
		if err == nil {
			det = f.Det()
		}
		if math.Abs(real(sum)-tr) > 1e-7*(1+math.Abs(tr)) || math.Abs(imag(sum)) > 1e-7 {
			t.Fatalf("trial %d: Σλ = %v, trace = %v", trial, sum, tr)
		}
		if err == nil && math.Abs(real(prod)-det) > 1e-6*(1+math.Abs(det)) {
			t.Fatalf("trial %d: Πλ = %v, det = %v", trial, prod, det)
		}
	}
}

func TestEigenvaluesSortedByMagnitude(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 0}, {0, -5}})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(eig[0]) < cmplx.Abs(eig[1]) {
		t.Fatal("eigenvalues not sorted by descending magnitude")
	}
}

func TestEigenvaluesNonSquare(t *testing.T) {
	if _, err := Eigenvalues(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestEigenvalues1x1(t *testing.T) {
	a := DenseFromRows([][]float64{{42}})
	eig, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(eig) != 1 || cmplx.Abs(eig[0]-42) > 1e-14 {
		t.Fatalf("eig = %v", eig)
	}
}

func TestEigenvaluesCloseNonSymmetricPair(t *testing.T) {
	// Eigenvalues 1 ± √(bc) = 1 ± 4.242e-11: a shift formed from
	// tr² − 4·det cancels to noise here and stalls QR.
	b, c := 4.51e-11, 3.99e-11
	eig, err := Eigenvalues(DenseFromRows([][]float64{{1, b}, {c, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	split := math.Sqrt(b * c)
	got := []float64{real(eig[0]) - 1, real(eig[1]) - 1}
	sort.Float64s(got)
	for i, want := range []float64{-split, split} {
		if math.Abs(got[i]-want) > 1e-3*split || imag(eig[i]) != 0 {
			t.Fatalf("eig − 1 = %v, want ±%.4g", got, split)
		}
	}
}
