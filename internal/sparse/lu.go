package sparse

import (
	"errors"
	"math"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/solverr"
)

// ErrSingular is returned when the factorization hits a zero pivot column.
var ErrSingular = errors.New("sparse: matrix is singular")

// ErrPatternChanged is returned by Refactor when the new matrix produces
// fill outside the symbolic pattern of the original factorization (the
// structure changed, or cancellation pruned the stored pattern); the caller
// should fall back to a full FactorLU.
var ErrPatternChanged = errors.New("sparse: matrix structure departs from factored pattern")

// LU is a sparse LU factorization with partial pivoting, computed by the
// left-looking (Gilbert–Peierls style) column algorithm with a dense work
// column. Row permutation only; no fill-reducing column ordering — adequate
// for the banded/block-structured Jacobians the multi-time solvers produce.
type LU struct {
	n       int
	lcol    [][]int     // L row indices per column (below diagonal, in elimination order)
	lval    [][]float64 // L values (unit diagonal implied)
	ucol    [][]int     // U row indices per column (at/above diagonal)
	uval    [][]float64 // U values; last entry is the pivot (diagonal)
	perm    []int       // perm[newRow] = oldRow
	permInv []int       // permInv[oldRow] = newRow

	// Symbolic-reuse state, built lazily by Refactor.
	colRow  [][]int32 // per column: original row of each A entry
	colIdx  [][]int32 // per column: index of that entry in a.Val
	uSorted [][]int32 // ucol[j] minus the pivot, sorted ascending
	rowPtr  []int     // structure of the matrix the scatter plan was built for
	colIdxA []int
	work    []float64 // dense accumulator, reused across Refactor calls
	touched []int
}

// FactorLU factorizes a square CSR matrix.
func FactorLU(a *CSR) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, solverr.New(solverr.KindBadInput, "sparse.lu",
			"FactorLU needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if faultinject.Fire(faultinject.SiteSparseLUSingular) {
		return nil, solverr.Wrap(solverr.KindSingular, "sparse.lu", ErrSingular).
			WithMsg("injected singular factorization")
	}
	n := a.Rows
	at := a.Transpose() // column access
	f := &LU{
		n:       n,
		lcol:    make([][]int, n),
		lval:    make([][]float64, n),
		ucol:    make([][]int, n),
		uval:    make([][]float64, n),
		perm:    make([]int, n),
		permInv: make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.perm[i] = -1
		f.permInv[i] = -1
	}
	work := make([]float64, n)   // dense accumulator indexed by *original* row
	touched := make([]int, 0, n) // original rows with nonzero work entries

	for col := 0; col < n; col++ {
		// Scatter column col of A into work (original row indices).
		for k := at.RowPtr[col]; k < at.RowPtr[col+1]; k++ {
			r := at.ColIdx[k]
			if work[r] == 0 {
				touched = append(touched, r)
			}
			work[r] += at.Val[k]
		}
		// Left-looking update: for each prior column j whose U entry in this
		// column is nonzero, subtract U(j,col) * L(:,j).
		for j := 0; j < col; j++ {
			pr := f.perm[j] // original row pivoted into position j
			uj := work[pr]
			if uj == 0 {
				continue
			}
			for k, r := range f.lcol[j] {
				if work[r] == 0 {
					touched = append(touched, r)
				}
				work[r] -= uj * f.lval[j][k]
			}
		}
		// Choose pivot: the largest |work| among not-yet-pivoted rows.
		pivRow, pivAbs := -1, 0.0
		for _, r := range touched {
			if f.permInv[r] >= 0 {
				continue
			}
			if a := math.Abs(work[r]); a > pivAbs {
				pivRow, pivAbs = r, a
			}
		}
		if pivRow < 0 || pivAbs == 0 {
			return nil, solverr.Wrap(solverr.KindSingular, "sparse.lu", ErrSingular).
				WithMsg("zero pivot at column %d", col).WithUnknown(col)
		}
		f.perm[col] = pivRow
		f.permInv[pivRow] = col
		pivVal := work[pivRow]
		// Split work into U (already-pivoted rows) and L (remaining rows).
		for _, r := range touched {
			v := work[r]
			work[r] = 0
			if v == 0 {
				continue
			}
			if p := f.permInv[r]; p >= 0 && p < col {
				f.ucol[col] = append(f.ucol[col], p)
				f.uval[col] = append(f.uval[col], v)
			} else if r != pivRow {
				f.lcol[col] = append(f.lcol[col], r)
				f.lval[col] = append(f.lval[col], v/pivVal)
			}
		}
		work[pivRow] = 0
		f.ucol[col] = append(f.ucol[col], col)
		f.uval[col] = append(f.uval[col], pivVal)
		touched = touched[:0]
	}
	return f, nil
}

// Refactor recomputes the numeric factors for a matrix with the same sparsity
// structure as the one originally factored, reusing the symbolic pattern: the
// pivot order, the L/U index structure, and the value storage all stay in
// place, so no symbolic analysis and (after the first call) no allocation is
// performed. Returns ErrSingular if a reused pivot becomes exactly zero, and
// ErrPatternChanged if the new values produce fill outside the stored
// pattern; in either case the caller should fall back to FactorLU.
func (f *LU) Refactor(a *CSR) error {
	n := f.n
	if a.Rows != n || a.Cols != n {
		return solverr.New(solverr.KindBadInput, "sparse.lu",
			"Refactor needs %dx%d matrix, got %dx%d", n, n, a.Rows, a.Cols)
	}
	f.ensurePlan(a)
	if len(a.RowPtr) != len(f.rowPtr) || len(a.ColIdx) != len(f.colIdxA) {
		return ErrPatternChanged
	}
	for i, p := range a.RowPtr {
		if p != f.rowPtr[i] {
			return ErrPatternChanged
		}
	}
	for i, c := range a.ColIdx {
		if c != f.colIdxA[i] {
			return ErrPatternChanged
		}
	}
	if faultinject.Fire(faultinject.SiteSparseLUSingular) {
		return solverr.Wrap(solverr.KindSingular, "sparse.lu", ErrSingular).
			WithMsg("injected singular refactorization")
	}
	work, touched := f.work, f.touched[:0]
	for col := 0; col < n; col++ {
		// Scatter column col of the new matrix (via the cached plan).
		rows, idxs := f.colRow[col], f.colIdx[col]
		for k, r := range rows {
			if work[r] == 0 {
				touched = append(touched, int(r))
			}
			work[r] += a.Val[idxs[k]]
		}
		// Left-looking update over prior columns in ascending order — the
		// same (valid topological) order the original factorization used.
		for _, j32 := range f.uSorted[col] {
			j := int(j32)
			pr := f.perm[j]
			uj := work[pr]
			if uj == 0 {
				continue
			}
			for k, r := range f.lcol[j] {
				if work[r] == 0 {
					touched = append(touched, r)
				}
				work[r] -= uj * f.lval[j][k]
			}
		}
		// Harvest values along the stored pattern.
		pivRow := f.perm[col]
		pivVal := work[pivRow]
		ucol, uval := f.ucol[col], f.uval[col]
		for k := 0; k < len(ucol)-1; k++ {
			r := f.perm[ucol[k]]
			uval[k] = work[r]
			work[r] = 0
		}
		if pivVal == 0 {
			f.clearWork(touched)
			return solverr.Wrap(solverr.KindSingular, "sparse.lu", ErrSingular).
				WithMsg("zero pivot at column %d (refactor)", col).WithUnknown(col)
		}
		uval[len(uval)-1] = pivVal
		work[pivRow] = 0
		for k, r := range f.lcol[col] {
			f.lval[col][k] = work[r] / pivVal
			work[r] = 0
		}
		// Anything still nonzero fell outside the symbolic pattern: the new
		// values fill where the closure says none can exist, so the structure
		// must have changed. Letting it leak would silently corrupt later
		// columns, so bail out.
		for _, r := range touched {
			if work[r] != 0 {
				f.clearWork(touched)
				return ErrPatternChanged
			}
		}
		touched = touched[:0]
	}
	f.touched = touched
	return nil
}

// ensurePlan builds (once) the column scatter plan, expands the stored
// factors to the full symbolic closure of the structure under the fixed pivot
// order, and tabulates the sorted U patterns, so Refactor can walk a new
// same-structure matrix column-wise without a transpose or symbolic analysis.
//
// The expansion matters because the numeric factorization prunes entries that
// cancel exactly; a refactorization with different values fills them again,
// so harvesting along the numeric pattern alone would leak. New pattern slots
// carry value 0 and old entries keep their order (U keeps its pivot-last
// convention), so solves with the existing factors are bitwise unchanged.
func (f *LU) ensurePlan(a *CSR) {
	if f.colRow != nil {
		return
	}
	n := f.n
	f.colRow = make([][]int32, n)
	f.colIdx = make([][]int32, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			f.colRow[j] = append(f.colRow[j], int32(i))
			f.colIdx[j] = append(f.colIdx[j], int32(k))
		}
	}
	f.rowPtr = append([]int(nil), a.RowPtr...)
	f.colIdxA = append([]int(nil), a.ColIdx...)

	// Symbolic closure with the pivot order fixed by the factorization: the
	// pattern of column col is the scatter pattern of A(:,col) plus, sweeping
	// prior positions j in ascending order, the (expanded) L pattern of every
	// j whose pivot row is already in the pattern — exactly the set of rows
	// the numeric left-looking update can reach, values regardless.
	inPat := make([]bool, n)  // by original row
	inOldU := make([]bool, n) // by position, current column's stored U entries
	inOldL := make([]bool, n) // by original row, current column's stored L entries
	marked := make([]int, 0, n)
	for col := 0; col < n; col++ {
		marked = marked[:0]
		for _, r := range f.colRow[col] {
			if !inPat[r] {
				inPat[r] = true
				marked = append(marked, int(r))
			}
		}
		for j := 0; j < col; j++ {
			if !inPat[f.perm[j]] {
				continue
			}
			for _, r := range f.lcol[j] {
				if !inPat[r] {
					inPat[r] = true
					marked = append(marked, r)
				}
			}
		}
		ucol, uval := f.ucol[col], f.uval[col]
		for k := 0; k < len(ucol)-1; k++ {
			inOldU[ucol[k]] = true
		}
		for _, r := range f.lcol[col] {
			inOldL[r] = true
		}
		// New slots appear after the old entries; the U pivot stays last.
		newU := ucol[:len(ucol)-1]
		newUval := uval[:len(uval)-1]
		pivP, pivV := ucol[len(ucol)-1], uval[len(uval)-1]
		sort.Ints(marked)
		for _, r := range marked {
			switch p := f.permInv[r]; {
			case p < col:
				if !inOldU[p] {
					newU = append(newU, p)
					newUval = append(newUval, 0)
				}
			case p > col:
				if !inOldL[r] {
					f.lcol[col] = append(f.lcol[col], r)
					f.lval[col] = append(f.lval[col], 0)
				}
			}
		}
		f.ucol[col] = append(newU, pivP)
		f.uval[col] = append(newUval, pivV)
		for k := 0; k < len(f.ucol[col])-1; k++ {
			inOldU[f.ucol[col][k]] = false
		}
		for _, r := range f.lcol[col] {
			inOldL[r] = false
		}
		for _, r := range marked {
			inPat[r] = false
		}
	}

	f.uSorted = make([][]int32, n)
	for j := 0; j < n; j++ {
		cols := f.ucol[j]
		s := make([]int32, 0, len(cols)-1)
		for k := 0; k < len(cols)-1; k++ {
			s = append(s, int32(cols[k]))
		}
		sort.Slice(s, func(x, y int) bool { return s[x] < s[y] })
		f.uSorted[j] = s
	}
	f.work = make([]float64, n)
	f.touched = make([]int, 0, n)
}

func (f *LU) clearWork(touched []int) {
	for _, r := range touched {
		f.work[r] = 0
	}
}

// N returns the factored dimension.
func (f *LU) N() int { return f.n }

// Solve solves A x = b, writing the solution into x. b and x must either be
// the same slice or not overlap; distinct storage solves in place in x with
// no allocation.
func (f *LU) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("sparse: LU.Solve length mismatch")
	}
	if n == 0 {
		return
	}
	// y in pivoted order: L y = P b, where row order is perm.
	y := x
	if &b[0] == &x[0] {
		y = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		y[j] = b[f.perm[j]]
	}
	// Forward: subtract L columns as we go (column-oriented forward solve).
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for k, r := range f.lcol[j] {
			y[f.permInv[r]] -= yj * f.lval[j][k]
		}
	}
	// Backward: U is stored by column; solve U x = y.
	for j := n - 1; j >= 0; j-- {
		ucol, uval := f.ucol[j], f.uval[j]
		// Last entry of column j is the pivot (row j).
		pivot := uval[len(uval)-1]
		xj := y[j] / pivot
		x2 := xj
		for k := 0; k < len(ucol)-1; k++ {
			y[ucol[k]] -= uval[k] * x2
		}
		y[j] = xj
	}
	if &y[0] != &x[0] {
		copy(x, y)
	}
}
