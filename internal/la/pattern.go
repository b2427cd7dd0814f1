package la

// Pattern is the union nonzero pattern of a set of same-shaped dense
// matrices, row by row in ascending column. A product over it sums the
// terms Dense.MulVec sums, in the same order from +0, except those whose
// entry is ±0 in every matrix. For finite x such a term is ±0, and adding
// ±0 to a partial sum started at +0 never changes it (the sum is never
// −0), so the product equals MulVec bit for bit. The values stay in the
// matrices: one pattern serves every matrix it was built from, and a
// product costs what their nonzeros cost.
type Pattern struct {
	cols  int
	start []int   // row r's columns are col[start[r]:start[r+1]]
	col   []int32 // ascending within each row
	mark  []bool  // Union scratch, one flag per entry
}

// NewPattern returns an empty pattern for r×c matrices; Union fills it.
func NewPattern(r, c int) *Pattern {
	return &Pattern{cols: c, start: make([]int, r+1), mark: make([]bool, r*c)}
}

// Union rebuilds p as the union of the nonzero patterns of ms, each of p's
// shape. An entry is in the pattern when it is nonzero (NaN included) in
// at least one matrix. Its column storage is reallocated, to the exact
// count, only when the union outgrows it.
func (p *Pattern) Union(ms []*Dense) {
	clear(p.mark)
	for _, m := range ms {
		if len(m.Data) != len(p.mark) || m.Cols != p.cols {
			panic("la: Pattern.Union shape mismatch")
		}
		for i, v := range m.Data {
			if v != 0 {
				p.mark[i] = true
			}
		}
	}
	nnz := 0
	for _, on := range p.mark {
		if on {
			nnz++
		}
	}
	if cap(p.col) < nnz {
		p.col = make([]int32, nnz)
	}
	p.col = p.col[:0]
	for r := range p.start[:len(p.start)-1] {
		p.start[r] = len(p.col)
		for c, on := range p.mark[r*p.cols : (r+1)*p.cols] {
			if on {
				p.col = append(p.col, int32(c))
			}
		}
	}
	p.start[len(p.start)-1] = len(p.col)
}

// MulVec computes y = A x over the pattern, where A has the pattern's
// shape and is zero outside it.
func (p *Pattern) MulVec(a *Dense, x, y []float64) {
	if len(a.Data) != len(p.mark) || a.Cols != p.cols || len(x) != a.Cols || len(y) != a.Rows {
		panic("la: Pattern.MulVec shape mismatch")
	}
	for r := range y {
		row := a.Data[r*a.Cols : (r+1)*a.Cols]
		s := 0.0
		for _, c := range p.col[p.start[r]:p.start[r+1]] {
			s += row[c] * x[c]
		}
		y[r] = s
	}
}
