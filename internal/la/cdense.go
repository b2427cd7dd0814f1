package la

import (
	"math"
	"math/cmplx"

	"repro/internal/solverr"
)

// CDense is a row-major dense complex matrix, used by the harmonic-balance
// and spectral-WaMPDE Jacobians.
type CDense struct {
	Rows, Cols int
	Data       []complex128
}

// NewCDense returns a zeroed r-by-c complex matrix.
func NewCDense(r, c int) *CDense {
	if r < 0 || c < 0 {
		panic("la: negative dimension")
	}
	return &CDense{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns A[i][j].
func (m *CDense) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns A[i][j] = v.
func (m *CDense) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add increments A[i][j] by v.
func (m *CDense) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Zero clears the matrix in place.
func (m *CDense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *CDense) Clone() *CDense {
	c := NewCDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = A x.
func (m *CDense) MulVec(x, y []complex128) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("la: CDense.MulVec length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// Mul computes C = A B.
func (m *CDense) Mul(b *CDense) *CDense {
	if m.Cols != b.Rows {
		panic("la: CDense.Mul dimension mismatch")
	}
	c := NewCDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += a * bv
			}
		}
	}
	return c
}

// CLU is a complex LU factorization with partial pivoting.
type CLU struct {
	lu  *CDense
	piv []int
}

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

// NewCLU returns an empty n×n complex factorization workspace for FactorInto,
// so recycled preconditioners can refactor without reallocating.
func NewCLU(n int) *CLU {
	return &CLU{lu: NewCDense(n, n), piv: make([]int, n)}
}

// FactorInto refactors a into f's existing storage, allocating nothing. a is
// not modified. On error the factor contents are undefined; the workspace may
// still be reused.
func (f *CLU) FactorInto(a *CDense) error {
	n := f.lu.Rows
	if a.Rows != n || a.Cols != n {
		return solverr.New(solverr.KindBadInput, "la.clu",
			"FactorInto needs %dx%d matrix, got %dx%d", n, n, a.Rows, a.Cols)
	}
	copy(f.lu.Data, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu.Data
	for k := 0; k < n; k++ {
		p, pmax := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu[i*n+k]); a > pmax {
				p, pmax = i, a
			}
		}
		if pmax == 0 {
			return solverr.Wrap(solverr.KindSingular, "la.clu", ErrSingular).
				WithMsg("zero pivot at column %d", k).WithUnknown(k)
		}
		if p != k {
			rk, rp := lu[k*n:(k+1)*n], lu[p*n:(p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			mlt := lu[i*n+k] / pivVal
			lu[i*n+k] = mlt
			if mlt == 0 {
				continue
			}
			ri, rk := lu[i*n:(i+1)*n], lu[k*n:(k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= mlt * rk[j]
			}
		}
	}
	return nil
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

// CNorm2 returns the Euclidean norm of a complex vector.
func CNorm2(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}
