// Package sparse provides sparse-matrix storage (triplet/COO assembly and
// compressed sparse row) and a left-looking sparse LU factorization with
// partial pivoting. The WaMPDE and transient Jacobians of large circuits are
// assembled here; paper §4 notes that "factored-matrix methods" make
// computation and memory grow almost linearly with system size.
package sparse

import (
	"fmt"
	"sort"
)

// Triplet is a coordinate-format sparse matrix builder. Duplicate entries
// are summed when converted to CSR, which makes it a natural target for MNA
// "stamping".
type Triplet struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewTriplet returns an empty r-by-c triplet accumulator.
func NewTriplet(r, c int) *Triplet {
	if r < 0 || c < 0 {
		panic("sparse: negative dimension")
	}
	return &Triplet{Rows: r, Cols: c}
}

// Add accumulates v at (i, j).
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.Rows || j < 0 || j >= t.Cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %dx%d", i, j, t.Rows, t.Cols))
	}
	t.I = append(t.I, i)
	t.J = append(t.J, j)
	t.V = append(t.V, v)
}

// Reset clears the accumulated entries but keeps the dimensions and the
// backing storage, so repeated Jacobian assembly does not reallocate.
func (t *Triplet) Reset() {
	t.I = t.I[:0]
	t.J = t.J[:0]
	t.V = t.V[:0]
}

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (t *Triplet) NNZ() int { return len(t.V) }

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len nnz, sorted within each row
	Val        []float64 // len nnz
}

// ToCSR converts the triplet to CSR, summing duplicates. The triplet is not
// modified.
func (t *Triplet) ToCSR() *CSR {
	type entry struct {
		j int
		v float64
	}
	rows := make([][]entry, t.Rows)
	for k := range t.V {
		rows[t.I[k]] = append(rows[t.I[k]], entry{t.J[k], t.V[k]})
	}
	c := &CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: make([]int, t.Rows+1)}
	for i, row := range rows {
		sort.Slice(row, func(a, b int) bool { return row[a].j < row[b].j })
		// Merge duplicates.
		for k := 0; k < len(row); {
			j := row[k].j
			v := row[k].v
			k++
			for k < len(row) && row[k].j == j {
				v += row[k].v
				k++
			}
			c.ColIdx = append(c.ColIdx, j)
			c.Val = append(c.Val, v)
		}
		c.RowPtr[i+1] = len(c.Val)
	}
	return c
}

// NNZ returns the stored entry count.
func (c *CSR) NNZ() int { return len(c.Val) }

// At returns entry (i, j), 0 if not stored. O(log nnz(row)).
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	idx := sort.SearchInts(c.ColIdx[lo:hi], j) + lo
	if idx < hi && c.ColIdx[idx] == j {
		return c.Val[idx]
	}
	return 0
}

// MulVec computes y = A x.
func (c *CSR) MulVec(x, y []float64) {
	if len(x) != c.Cols || len(y) != c.Rows {
		panic("sparse: MulVec length mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		s := 0.0
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Val[k] * x[c.ColIdx[k]]
		}
		y[i] = s
	}
}

// Transpose returns A^T in CSR form.
func (c *CSR) Transpose() *CSR {
	t := &CSR{Rows: c.Cols, Cols: c.Rows, RowPtr: make([]int, c.Cols+1)}
	counts := make([]int, c.Cols)
	for _, j := range c.ColIdx {
		counts[j]++
	}
	for j := 0; j < c.Cols; j++ {
		t.RowPtr[j+1] = t.RowPtr[j] + counts[j]
	}
	t.ColIdx = make([]int, c.NNZ())
	t.Val = make([]float64, c.NNZ())
	next := make([]int, c.Cols)
	copy(next, t.RowPtr[:c.Cols])
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			j := c.ColIdx[k]
			t.ColIdx[next[j]] = i
			t.Val[next[j]] = c.Val[k]
			next[j]++
		}
	}
	return t
}
