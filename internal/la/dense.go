// Package la provides the dense linear-algebra substrate used throughout the
// simulator: real and complex matrices, LU and QR factorizations, and the
// vector kernels the Newton, harmonic-balance and WaMPDE solvers are built
// on. Everything is implemented from scratch on the standard library.
package la

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense real matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = A[i][j]

	adder func(i, j int, v float64) // cached by Adder
}

// Adder returns a stamping callback that accumulates v into A[i][j],
// silently dropping entries with a negative index (the circuit stampers'
// ground-row convention). The closure is cached on the matrix, so assembly
// loops that stamp into long-lived matrices allocate nothing per call. Not
// safe for concurrent first use on the same matrix; concurrent stamping into
// distinct matrices is fine.
func (m *Dense) Adder() func(i, j int, v float64) {
	if m.adder == nil {
		m.adder = func(i, j int, v float64) {
			if i >= 0 && j >= 0 {
				m.Data[i*m.Cols+j] += v
			}
		}
	}
	return m.adder
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("la: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// DenseFromRows builds a matrix from row slices; all rows must have equal length.
func DenseFromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("la: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns A[i][j].
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns A[i][j] = v.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments A[i][j] by v. This is the "stamp" primitive used by MNA.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every entry to 0 in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("la: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Scale multiplies every entry by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled performs m += s*b in place; dimensions must match.
func (m *Dense) AddScaled(s float64, b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("la: AddScaled dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] += s * b.Data[i]
	}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// MulVec computes y = A x. y must have length Rows, x length Cols.
func (m *Dense) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("la: MulVec dims %dx%d with x=%d y=%d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// Mul computes C = A B as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic("la: Mul dimension mismatch")
	}
	c := NewDense(m.Rows, b.Cols)
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

// MaxAbs returns the largest absolute entry.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// NormFro returns the Frobenius norm.
func (m *Dense) NormFro() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .6e ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
