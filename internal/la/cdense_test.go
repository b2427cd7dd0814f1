package la

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/solverr"
)

// FactorCLU and CLU.Solve are the dense complex factor-and-solve that
// PackedCLU replaced in the harmonic preconditioner, kept here as its
// oracle.

// FactorCLU computes the LU factorization of a square complex matrix.
func FactorCLU(a *CDense) (*CLU, error) {
	if a.Rows != a.Cols {
		return nil, solverr.New(solverr.KindBadInput, "la.clu",
			"FactorCLU needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	f := NewCLU(a.Rows)
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Solve solves A x = b, writing the solution into x. b and x must either be
// the same slice or not overlap; distinct storage solves in place in x with
// no allocation.
func (f *CLU) Solve(b, x []complex128) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("la: CLU.Solve length mismatch")
	}
	if n == 0 {
		return
	}
	lu := f.lu.Data
	tmp := x
	if &b[0] == &x[0] {
		tmp = make([]complex128, n)
	}
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := tmp[i]
		for j := 0; j < i; j++ {
			s -= lu[i*n+j] * tmp[j]
		}
		tmp[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := tmp[i]
		for j := i + 1; j < n; j++ {
			s -= lu[i*n+j] * tmp[j]
		}
		tmp[i] = s / lu[i*n+i]
	}
	if &tmp[0] != &x[0] {
		copy(x, tmp)
	}
}

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

// sparseBins returns k random sparse complex n×n matrices sharing one
// pattern, as the harmonic bins λ_h·A + B do: the diagonal is scaled down
// so partial pivoting swaps rows, and each matrix's λ_h weighs the two
// parts differently, so the pivots and the fill differ from matrix to
// matrix.
func sparseBins(rng *rand.Rand, k, n int, density float64) []*CDense {
	a, b := NewDense(n, n), NewDense(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if r == c || rng.Float64() < density {
				a.Set(r, c, rng.NormFloat64())
			}
			if r == c || rng.Float64() < density {
				b.Set(r, c, rng.NormFloat64())
			}
		}
		a.Set(r, r, 1e-3*a.At(r, r))
	}
	bins := make([]*CDense, k)
	for h := range bins {
		lam := complex(rng.Float64(), 4*rng.NormFloat64())
		m := NewCDense(n, n)
		for i := range m.Data {
			m.Data[i] = lam*complex(a.Data[i], 0) + complex(b.Data[i], 0)
		}
		bins[h] = m
	}
	return bins
}

// TestPackedCLUMatchesDenseSolve checks PackedCLU against its oracle, one
// dense CLU per matrix with FactorInto and Solve: the solutions must be
// equal value for value (±0 compare equal). Refactoring a denser set into
// the same storage exercises the regrowth path, and a sparser one after it
// reuses the storage.
func TestPackedCLUMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 4, 45} {
		const k = 9
		p := NewPackedCLU(k, n)
		for _, density := range []float64{0.05, 0.3, 0.1} {
			bins := sparseBins(rng, k, n, density)
			if err := p.Factor(func(i int, a *CDense) { copy(a.Data, bins[i].Data) }); err != nil {
				t.Fatalf("n=%d density %g: Factor: %v", n, density, err)
			}
			swapped, fills := false, map[int]bool{}
			nnz := 0
			for i, m := range bins {
				f, err := FactorCLU(m)
				if err != nil {
					t.Fatalf("n=%d: oracle FactorCLU: %v", n, err)
				}
				for r, q := range f.piv {
					swapped = swapped || q != r
				}
				fills[f.offDiagNNZ()] = true
				nnz += f.offDiagNNZ()
				b := make([]complex128, n)
				for j := range b {
					b[j] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want, got := make([]complex128, n), make([]complex128, n)
				f.Solve(b, want)
				p.Solve(i, b, got)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d density %g matrix %d: x[%d] = %v, oracle %v", n, density, i, j, got[j], want[j])
					}
				}
			}
			if len(p.val) < nnz || (density == 0.3 && len(p.val) != nnz) {
				t.Errorf("n=%d density %g: storage holds %d nonzeros, factors have %d", n, density, len(p.val), nnz)
			}
			if n == 45 && (!swapped || len(fills) < 2) {
				t.Errorf("n=%d density %g: want row swaps and differing fill, got swaps %v and %d fill counts", n, density, swapped, len(fills))
			}
		}
	}
}

// TestPackedCLUSingularMatrixFails checks that one singular matrix fails
// the whole build as KindSingular, as the dense factorization does.
func TestPackedCLUSingularMatrixFails(t *testing.T) {
	bins := sparseBins(rand.New(rand.NewSource(5)), 4, 6, 0.3)
	for c := 0; c < 6; c++ {
		bins[2].Set(3, c, 0) // row 3 of matrix 2 is zero
	}
	err := NewPackedCLU(4, 6).Factor(func(i int, a *CDense) { copy(a.Data, bins[i].Data) })
	if !solverr.IsKind(err, solverr.KindSingular) {
		t.Fatalf("Factor with a singular matrix: %v, want KindSingular", err)
	}
}

// TestPackedCLUAllocatesNothing checks that refactoring and solving a set
// whose factors fit the storage allocate nothing.
func TestPackedCLUAllocatesNothing(t *testing.T) {
	bins := sparseBins(rand.New(rand.NewSource(6)), 5, 12, 0.2)
	p := NewPackedCLU(5, 12)
	fill := func(i int, a *CDense) { copy(a.Data, bins[i].Data) }
	b, x := make([]complex128, 12), make([]complex128, 12)
	allocs := testing.AllocsPerRun(10, func() {
		if err := p.Factor(fill); err != nil {
			t.Fatal(err)
		}
		for i := range bins {
			p.Solve(i, b, x)
		}
	})
	if allocs > 0 {
		t.Errorf("PackedCLU Factor+Solve allocates %.1f objects/op, want 0", allocs)
	}
}
