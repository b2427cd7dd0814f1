package la

import "math"

// Vector kernels. These operate on plain []float64 so callers can slice
// state vectors freely; all functions require equal lengths where relevant.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("la: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the max-abs norm of x.
func NormInf(x []float64) float64 {
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Axpy performs y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scal performs x *= a in place.
func Scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Copy copies src into dst (lengths must match) and returns dst.
func Copy(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		panic("la: Copy length mismatch")
	}
	copy(dst, src)
	return dst
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Sub computes dst = x - y in place.
func Sub(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("la: Sub length mismatch")
	}
	for i := range x {
		dst[i] = x[i] - y[i]
	}
}
