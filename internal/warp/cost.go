package warp

import "math"

// Grid2D is a uniform sampling of a bivariate function on
// [0,P1) × [0,P2): Val[j2][j1] = f(j1·P1/N1, j2·P2/N2). Both axes are
// treated as periodic, matching the paper's doubly periodic bivariate
// forms.
type Grid2D struct {
	N1, N2 int
	P1, P2 float64
	Val    [][]float64
}

// SampleGrid evaluates f on an N1×N2 uniform periodic grid.
func SampleGrid(f func(t1, t2 float64) float64, n1, n2 int, p1, p2 float64) *Grid2D {
	g := &Grid2D{N1: n1, N2: n2, P1: p1, P2: p2, Val: make([][]float64, n2)}
	for j2 := range g.Val {
		row := make([]float64, n1)
		t2 := p2 * float64(j2) / float64(n2)
		for j1 := range row {
			row[j1] = f(p1*float64(j1)/float64(n1), t2)
		}
		g.Val[j2] = row
	}
	return g
}

// Eval bilinearly interpolates the grid at (t1, t2) with periodic wrap.
func (g *Grid2D) Eval(t1, t2 float64) float64 {
	f1 := math.Mod(t1/g.P1, 1)
	if f1 < 0 {
		f1++
	}
	f2 := math.Mod(t2/g.P2, 1)
	if f2 < 0 {
		f2++
	}
	x := f1 * float64(g.N1)
	y := f2 * float64(g.N2)
	i0 := int(x) % g.N1
	j0 := int(y) % g.N2
	i1 := (i0 + 1) % g.N1
	j1 := (j0 + 1) % g.N2
	wx := x - math.Floor(x)
	wy := y - math.Floor(y)
	return (1-wx)*(1-wy)*g.Val[j0][i0] +
		wx*(1-wy)*g.Val[j0][i1] +
		(1-wx)*wy*g.Val[j1][i0] +
		wx*wy*g.Val[j1][i1]
}

// NumSamples returns the storage cost of the grid.
func (g *Grid2D) NumSamples() int { return g.N1 * g.N2 }

// RepresentationError measures how well an n1×n2 periodic grid sampling of
// the bivariate function represents it: the max |grid interpolation − f|
// over a dense probe set. This quantifies the §3 claim that warped
// representations need few samples (Figure 6) while unwarped FM needs many
// (Figure 5).
func RepresentationError(f func(t1, t2 float64) float64, n1, n2 int, p1, p2 float64) float64 {
	g := SampleGrid(f, n1, n2, p1, p2)
	const probe = 61 // dense, deliberately incommensurate with grid sizes
	worst := 0.0
	for a := 0; a < probe; a++ {
		for b := 0; b < probe; b++ {
			t1 := p1 * (float64(a) + 0.35) / probe
			t2 := p2 * (float64(b) + 0.35) / probe
			if d := math.Abs(g.Eval(t1, t2) - f(t1, t2)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// UnivariateSampleCount returns the number of samples a direct transient-
// style sampling of a two-rate signal needs: pointsPerCycle fast samples
// over one slow period, n = pointsPerCycle·T2/T1 (the paper's "nT2/T1",
// 750 for Figure 1).
func UnivariateSampleCount(t1, t2 float64, pointsPerCycle int) int {
	return int(math.Round(float64(pointsPerCycle) * t2 / t1))
}
