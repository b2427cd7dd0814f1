package la

import (
	"errors"
	"math"

	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/solverr"
)

// ErrSingular is returned when a factorization encounters an (exactly or
// numerically) singular matrix.
var ErrSingular = errors.New("la: matrix is singular")

// LU holds an LU factorization with partial pivoting: P A = L U.
type LU struct {
	lu    *Dense // L (unit diagonal, below) and U (on/above diagonal) packed
	piv   []int  // row i of the factors came from row piv[i] of A
	signP int    // determinant sign of the permutation
}

// luBlock is the panel width of the blocked right-looking factorization. A
// matrix with n ≤ luBlock is a single panel, factored by plain
// column-at-a-time elimination.
const luBlock = 48

// luParRows is the number of trailing rows a panel's trailing update needs
// before it goes to the worker pool; smaller updates run on the calling
// goroutine, where they finish sooner than a dispatch pays back (on a
// 2-vCPU VM, two workers lost at n = 150 and won clearly by n = 500).
// Like every chunk layout the pool runs, it is a constant, never derived
// from the worker count.
const luParRows = 256

// luRowGrain is the number of trailing rows each pooled chunk updates.
const luRowGrain = 16

// FactorLU computes the LU factorization of a (square) with partial pivoting.
// a is not modified.
//
// The elimination is blocked and right-looking: each luBlock-wide panel is
// factored in place column by column, then every row below the panel's
// diagonal applies the panel's updates to its columns right of the panel —
// first the panel's own rows (the block row of U), in order, then the
// trailing rows, which go to the par worker pool when there are at least
// luParRows of them. Every entry receives the products and subtractions of
// column-at-a-time elimination, in ascending column order, with zero
// multipliers skipped, so the factors, pivots and permutation sign are
// bitwise identical to the classic unblocked algorithm at any worker count
// (the pivot sequence is also identical: panels see a fully updated
// trailing matrix, exactly as column-at-a-time elimination does).
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, solverr.New(solverr.KindBadInput, "la.lu",
			"FactorLU needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	f := NewLU(a.Rows)
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// NewLU returns an empty n×n factorization workspace for FactorInto. It lets
// a solver that refactors the same-size system many times (every Newton
// iteration of every envelope step) reuse one allocation for the factors.
func NewLU(n int) *LU {
	return &LU{lu: NewDense(n, n), piv: make([]int, n), signP: 1}
}

// FactorInto refactors a (square, same size as the workspace) into f's
// existing storage. It allocates nothing unless a trailing update runs on
// more than one worker. a is not modified. On error the factor contents are
// undefined; the workspace may still be reused.
func (f *LU) FactorInto(a *Dense) error {
	n := f.lu.Rows
	if a.Rows != n || a.Cols != n {
		return solverr.New(solverr.KindBadInput, "la.lu",
			"FactorInto needs %dx%d matrix, got %dx%d", n, n, a.Rows, a.Cols)
	}
	if faultinject.Fire(faultinject.SiteDenseLUSingular) {
		return solverr.Wrap(solverr.KindSingular, "la.lu", ErrSingular).
			WithMsg("injected singular factorization")
	}
	copy(f.lu.Data, a.Data)
	f.signP = 1
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu.Data
	for k0 := 0; k0 < n; k0 += luBlock {
		kend := k0 + luBlock
		if kend > n {
			kend = n
		}
		// Panel factorization: columns [k0, kend) with partial pivoting over
		// rows k..n-1, updating only the remaining panel columns.
		for k := k0; k < kend; k++ {
			p, pmax := k, math.Abs(lu[k*n+k])
			for i := k + 1; i < n; i++ {
				if a := math.Abs(lu[i*n+k]); a > pmax {
					p, pmax = i, a
				}
			}
			if pmax == 0 {
				return solverr.Wrap(solverr.KindSingular, "la.lu", ErrSingular).
					WithMsg("zero pivot at column %d", k).WithUnknown(k)
			}
			if p != k {
				rk, rp := lu[k*n:(k+1)*n], lu[p*n:(p+1)*n]
				for j := range rk {
					rk[j], rp[j] = rp[j], rk[j]
				}
				f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
				f.signP = -f.signP
			}
			pivVal := lu[k*n+k]
			for i := k + 1; i < n; i++ {
				m := lu[i*n+k] / pivVal
				lu[i*n+k] = m
				if m == 0 {
					continue
				}
				ri, rk := lu[i*n+k+1:i*n+kend], lu[k*n+k+1:k*n+kend]
				for j := range ri {
					ri[j] -= m * rk[j]
				}
			}
		}
		if kend == n {
			break
		}
		// Block row of U, U12 = L11⁻¹·A12: each panel row needs the final
		// rows above it, so the rows run in order here.
		f.eliminateRows(k0, kend, k0+1, kend)
		// Trailing update A22 -= L21·U12: its rows are independent. At one
		// worker the pool would run its chunks in order on this goroutine,
		// so the rows run here directly and no closure is built.
		if rows := n - kend; rows >= luParRows && par.Workers() > 1 {
			f.eliminatePooled(k0, kend)
		} else {
			f.eliminateRows(k0, kend, kend, n)
		}
	}
	return nil
}

// eliminatePooled runs the trailing update of panel [k0, kend) over the
// worker pool in luRowGrain-row chunks. It is split out of FactorInto so
// that the closure, which escapes to the pool, is built only when the pool
// runs.
func (f *LU) eliminatePooled(k0, kend int) {
	par.For(f.lu.Rows-kend, luRowGrain, func(lo, hi int) {
		f.eliminateRows(k0, kend, kend+lo, kend+hi)
	})
}

// eliminateRows applies panel [k0, kend)'s updates to columns [kend, n) of
// rows [lo, hi): row i subtracts m·(row k of U) for each nonzero multiplier
// m = lu[i][k], k0 ≤ k < min(i, kend), in ascending k. It gathers a row's
// nonzero multipliers first and subtracts four rows of U per pass, so the
// destination row is loaded and stored once per four updates; each entry
// still sees the same operations in the same order as one update at a time.
func (f *LU) eliminateRows(k0, kend, lo, hi int) {
	n := f.lu.Rows
	lu := f.lu.Data
	var ks [luBlock]int
	for i := lo; i < hi; i++ {
		ri := lu[i*n : (i+1)*n]
		nk := 0
		for k := k0; k < min(i, kend); k++ {
			if ri[k] != 0 {
				ks[nk] = k
				nk++
			}
		}
		d := ri[kend:]
		q := 0
		for ; q+4 <= nk; q += 4 {
			r0, r1, r2, r3 := ks[q], ks[q+1], ks[q+2], ks[q+3]
			m0, m1, m2, m3 := ri[r0], ri[r1], ri[r2], ri[r3]
			u0 := lu[r0*n+kend : (r0+1)*n][:len(d)]
			u1 := lu[r1*n+kend : (r1+1)*n][:len(d)]
			u2 := lu[r2*n+kend : (r2+1)*n][:len(d)]
			u3 := lu[r3*n+kend : (r3+1)*n][:len(d)]
			for j, v := range d {
				d[j] = v - m0*u0[j] - m1*u1[j] - m2*u2[j] - m3*u3[j]
			}
		}
		for ; q < nk; q++ {
			k := ks[q]
			m := ri[k]
			u := lu[k*n+kend : (k+1)*n][:len(d)]
			for j := range d {
				d[j] -= m * u[j]
			}
		}
	}
}

// N returns the factored dimension.
func (f *LU) N() int { return f.lu.Rows }

// Solve solves A x = b, writing the solution into x. b and x must either be
// the same slice or not overlap. With distinct storage the substitution runs
// directly in x and allocates nothing (the hot path); the in-place form falls
// back to a temporary.
func (f *LU) Solve(b, x []float64) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("la: LU.Solve length mismatch")
	}
	if n == 0 {
		return
	}
	lu := f.lu.Data
	tmp := x
	if &b[0] == &x[0] {
		tmp = make([]float64, n)
	}
	// Apply permutation: y = P b.
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	// Forward substitution L y = P b (L unit lower).
	for i := 1; i < n; i++ {
		s := tmp[i]
		row := lu[i*n : i*n+i]
		for j, l := range row {
			s -= l * tmp[j]
		}
		tmp[i] = s
	}
	// Back substitution U x = y.
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

// SolveMatrixInto solves A X = B for every column of B at once, writing X
// into x (same shape as b, distinct storage). The substitutions sweep whole
// rows of x and skip zero factor entries, so the sparse factors of circuit
// matrices cost only their nonzeros. It is serial and allocates nothing.
func (f *LU) SolveMatrixInto(b, x *Dense) {
	n := f.lu.Rows
	if b.Rows != n || x.Rows != n || x.Cols != b.Cols {
		panic("la: SolveMatrixInto dimension mismatch")
	}
	lu := f.lu.Data
	for i := 0; i < n; i++ {
		copy(x.Row(i), b.Row(f.piv[i]))
	}
	// Forward substitution L Y = P B (L unit lower).
	for i := 1; i < n; i++ {
		xi := x.Row(i)
		for j, l := range lu[i*n : i*n+i] {
			if l != 0 {
				Axpy(-l, x.Row(j), xi)
			}
		}
	}
	// Back substitution U X = Y.
	for i := n - 1; i >= 0; i-- {
		xi := x.Row(i)
		for j := i + 1; j < n; j++ {
			if u := lu[i*n+j]; u != 0 {
				Axpy(-u, x.Row(j), xi)
			}
		}
		d := lu[i*n+i]
		for c := range xi {
			xi[c] /= d
		}
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	n := f.lu.Rows
	d := float64(f.signP)
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

// SolveDense is a convenience: factor a and solve a single right-hand side.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.Solve(b, x)
	return x, nil
}
