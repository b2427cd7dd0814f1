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

// PackedCLU holds the LU factors of k n×n complex matrices, packed by their
// nonzeros into storage the k share: per matrix its pivots and U diagonal,
// and per row the nonzero entries of L, then of U, with their columns, in
// ascending column. Each matrix is factored in turn in one shared dense CLU
// workspace, so a solve costs O(n + nnz L + nnz U) and the whole set holds
// one n×n workspace instead of k.
type PackedCLU struct {
	k, n int
	lu   *CLU    // the shared factorization workspace
	a    *CDense // the matrix being factored, written by Factor's fill
	piv  []int   // matrix i's row permutation is piv[i·n:(i+1)·n]
	diag []complex128
	// Row r of matrix i has its L entries at [ptr[2(i·n+r)], ptr[2(i·n+r)+1])
	// and its U entries at [ptr[2(i·n+r)+1], ptr[2(i·n+r)+2]) of val and col.
	ptr []int
	val []complex128
	col []int32
}

// NewPackedCLU returns empty storage for the factors of k n×n matrices.
func NewPackedCLU(k, n int) *PackedCLU {
	return &PackedCLU{
		k: k, n: n,
		lu:   NewCLU(n),
		a:    NewCDense(n, n),
		piv:  make([]int, k*n),
		diag: make([]complex128, k*n),
		ptr:  make([]int, 2*k*n+1),
	}
}

// Factor refactors all k matrices: fill(i, a) writes matrix i into a, which
// is factored with CLU.FactorInto and packed. A singular matrix fails it
// with FactorInto's error. The nonzero storage is sized exactly: when the
// factors outgrow it, Factor counts the remaining matrices' nonzeros,
// reallocates, and refactors the matrix that did not fit.
func (p *PackedCLU) Factor(fill func(i int, a *CDense)) error {
	used := 0
	for i := 0; i < p.k; i++ {
		if err := p.factor(i, fill); err != nil {
			return err
		}
		if need := used + p.lu.offDiagNNZ(); need > len(p.val) {
			for j := i + 1; j < p.k; j++ {
				if err := p.factor(j, fill); err != nil {
					return err
				}
				need += p.lu.offDiagNNZ()
			}
			val, col := make([]complex128, need), make([]int32, need)
			copy(val, p.val[:used])
			copy(col, p.col[:used])
			p.val, p.col = val, col
			if err := p.factor(i, fill); err != nil {
				return err
			}
		}
		used = p.pack(i, used)
	}
	return nil
}

// factor fills matrix i and factors it into the shared workspace.
func (p *PackedCLU) factor(i int, fill func(i int, a *CDense)) error {
	fill(i, p.a)
	return p.lu.FactorInto(p.a)
}

// offDiagNNZ counts the nonzero entries of f's L and U off the diagonal.
func (f *CLU) offDiagNNZ() int {
	n, nnz := f.lu.Rows, 0
	for r := 0; r < n; r++ {
		for c, v := range f.lu.Data[r*n : (r+1)*n] {
			if c != r && v != 0 {
				nnz++
			}
		}
	}
	return nnz
}

// pack copies the workspace's factors in as matrix i's, from entry used of
// the nonzero storage, and returns the entries used after it.
func (p *PackedCLU) pack(i, used int) int {
	n, lu := p.n, p.lu.lu.Data
	copy(p.piv[i*n:(i+1)*n], p.lu.piv)
	for r := 0; r < n; r++ {
		row := lu[r*n : (r+1)*n]
		p.diag[i*n+r] = row[r]
		p.ptr[2*(i*n+r)] = used
		for c, v := range row {
			if c == r {
				p.ptr[2*(i*n+r)+1] = used
			} else if v != 0 {
				p.val[used], p.col[used] = v, int32(c)
				used++
			}
		}
	}
	p.ptr[2*(i+1)*n] = used
	return used
}

// Solve solves A_i x = b for matrix i, writing the solution into x, which
// must not overlap b. It subtracts the factors' nonzero terms in the order
// a dense triangular solve does, so its result equals that solve's for
// finite b up to the sign of a zero.
func (p *PackedCLU) Solve(i int, b, x []complex128) {
	n := p.n
	if len(b) != n || len(x) != n {
		panic("la: PackedCLU.Solve length mismatch")
	}
	for r, q := range p.piv[i*n : (i+1)*n] {
		x[r] = b[q]
	}
	ptr := p.ptr[2*i*n : 2*(i+1)*n+1]
	for r := 1; r < n; r++ {
		s := x[r]
		for e := ptr[2*r]; e < ptr[2*r+1]; e++ {
			s -= p.val[e] * x[p.col[e]]
		}
		x[r] = s
	}
	diag := p.diag[i*n : (i+1)*n]
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for e := ptr[2*r+1]; e < ptr[2*r+2]; e++ {
			s -= p.val[e] * x[p.col[e]]
		}
		x[r] = s / diag[r]
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
