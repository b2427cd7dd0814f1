package la

import (
	"math"
	"math/rand"
	"testing"
)

// TestPatternMulVecMatchesDense checks the pattern product against its
// oracle, Dense.MulVec, bit for bit: on blocks with explicit +0 and −0
// entries, entries that are zero in only some of the blocks, an all-zero
// block, and at n = 1, 4 and 45.
func TestPatternMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 4, 45} {
		const blocks = 6
		ms := make([]*Dense, blocks)
		for b := range ms {
			ms[b] = NewDense(n, n)
		}
		for i := 0; i < n*n; i++ {
			switch u := rng.Float64(); {
			case u < 0.1: // nonzero in every block but the all-zero one
				for b := 1; b < blocks; b++ {
					ms[b].Data[i] = rng.NormFloat64()
				}
			case u < 0.2: // nonzero in some blocks only
				for b := 1; b < blocks; b++ {
					if rng.Intn(2) == 0 {
						ms[b].Data[i] = rng.NormFloat64()
					}
				}
			case u < 0.3: // explicit −0 in some blocks
				for b := 1; b < blocks; b++ {
					if rng.Intn(2) == 0 {
						ms[b].Data[i] = negZero
					}
				}
			}
		}
		// Entries that cancel to zero in some products, and tiny products.
		ms[2].Data[0] = 1e-300
		p := NewPattern(n, n)
		p.Union(ms)
		for b, m := range ms {
			for trial := 0; trial < 3; trial++ {
				x := make([]float64, n)
				for i := range x {
					switch rng.Intn(4) {
					case 0:
						x[i] = negZero
					case 1:
						x[i] = 1e-300 * rng.NormFloat64()
					default:
						x[i] = rng.NormFloat64()
					}
				}
				want, got := make([]float64, n), make([]float64, n)
				m.MulVec(x, want)
				p.MulVec(m, x, got)
				for r := range want {
					if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
						t.Fatalf("n=%d block %d row %d: pattern %v (%#x), dense %v (%#x)",
							n, b, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
					}
				}
			}
		}
	}
}

// TestPatternUnion checks the union's contents: an entry is in it when it
// is nonzero in some block, −0 and +0 never are, and a rebuild over other
// blocks replaces it.
func TestPatternUnion(t *testing.T) {
	a := DenseFromRows([][]float64{{0, 2, 0}, {math.Copysign(0, -1), 0, 0}, {0, 0, 5}})
	b := DenseFromRows([][]float64{{1, 0, 0}, {0, 0, 0}, {0, math.NaN(), 0}})
	p := NewPattern(3, 3)
	p.Union([]*Dense{a, b})
	want := [][]int32{{0, 1}, {}, {1, 2}}
	for r, cols := range want {
		got := p.col[p.start[r]:p.start[r+1]]
		if len(got) != len(cols) {
			t.Fatalf("row %d columns %v, want %v", r, got, cols)
		}
		for i := range got {
			if got[i] != cols[i] {
				t.Fatalf("row %d columns %v, want %v", r, got, cols)
			}
		}
	}
	if len(p.col) != 4 || cap(p.col) != 4 {
		t.Fatalf("%d entries with capacity %d, want 4 and 4", len(p.col), cap(p.col))
	}
	p.Union([]*Dense{NewDense(3, 3)})
	if len(p.col) != 0 {
		t.Fatalf("union of an all-zero block has %d entries", len(p.col))
	}
}
