package la

import (
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/solverr"
)

// Eigenvalues returns all eigenvalues of a (square, real) matrix, sorted by
// descending magnitude. It reduces to complex Hessenberg form and runs a
// shifted QR iteration with deflation — intended for the small matrices
// (monodromy/Floquet, stability analysis) this simulator produces, not for
// large-scale eigenproblems.
func Eigenvalues(a *Dense) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, solverr.New(solverr.KindBadInput, "la.eigen", "Eigenvalues needs a square matrix")
	}
	n := a.Rows
	h := NewCDense(n, n)
	for i := range a.Data {
		h.Data[i] = complex(a.Data[i], 0)
	}
	hessenberg(h)
	eig, err := qrEigHessenberg(h)
	if err != nil {
		return nil, err
	}
	sort.Slice(eig, func(i, j int) bool { return cmplx.Abs(eig[i]) > cmplx.Abs(eig[j]) })
	return eig, nil
}

// hessenberg reduces h (square, complex) to upper Hessenberg form in place
// using Householder reflectors.
func hessenberg(h *CDense) {
	n := h.Rows
	for k := 0; k < n-2; k++ {
		// Build reflector for column k, rows k+1..n-1.
		var norm float64
		for i := k + 1; i < n; i++ {
			norm = math.Hypot(norm, cmplx.Abs(h.At(i, k)))
		}
		if norm == 0 {
			continue
		}
		alpha := h.At(k+1, k)
		var phase complex128 = 1
		if alpha != 0 {
			phase = alpha / complex(cmplx.Abs(alpha), 0)
		}
		beta := -phase * complex(norm, 0)
		v := make([]complex128, n)
		v[k+1] = alpha - beta
		for i := k + 2; i < n; i++ {
			v[i] = h.At(i, k)
		}
		vnorm := CNorm2(v)
		if vnorm == 0 {
			continue
		}
		for i := range v {
			v[i] /= complex(vnorm, 0)
		}
		// H = (I - 2 v v*) H (I - 2 v v*)
		applyReflectorLeft(h, v)
		applyReflectorRight(h, v)
		h.Set(k+1, k, beta)
		for i := k + 2; i < n; i++ {
			h.Set(i, k, 0)
		}
	}
}

func applyReflectorLeft(h *CDense, v []complex128) {
	n := h.Rows
	for j := 0; j < n; j++ {
		var s complex128
		for i := 0; i < n; i++ {
			s += cmplx.Conj(v[i]) * h.At(i, j)
		}
		s *= 2
		for i := 0; i < n; i++ {
			h.Add(i, j, -s*v[i])
		}
	}
}

func applyReflectorRight(h *CDense, v []complex128) {
	n := h.Rows
	for i := 0; i < n; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += h.At(i, j) * v[j]
		}
		s *= 2
		for j := 0; j < n; j++ {
			h.Add(i, j, -s*cmplx.Conj(v[j]))
		}
	}
}

// qrEigHessenberg runs single-shift (Wilkinson) QR with deflation on an
// upper-Hessenberg complex matrix, via explicit Givens rotations.
func qrEigHessenberg(h *CDense) ([]complex128, error) {
	n := h.Rows
	eig := make([]complex128, 0, n)
	hi := n - 1 // active block is rows/cols 0..hi
	// A subdiagonal below ε·‖H‖_F is roundoff of the reduction itself: when
	// ‖H‖ dwarfs the eigenvalues (a monodromy with ‖M‖ ≈ 1e5 and |μ| ≤ 1),
	// the relative test alone can never be met.
	floor := 0.0
	for _, v := range h.Data {
		floor = math.Hypot(floor, cmplx.Abs(v))
	}
	floor *= 0x1p-52
	const maxIterPerEig = 200
	iter := 0
	for hi >= 0 {
		if hi == 0 {
			eig = append(eig, h.At(0, 0))
			hi--
			continue
		}
		// Deflate negligible subdiagonals.
		deflated := false
		for k := hi; k >= 1; k-- {
			sub := cmplx.Abs(h.At(k, k-1))
			tol := math.Max(1e-14*(cmplx.Abs(h.At(k-1, k-1))+cmplx.Abs(h.At(k, k))), floor)
			if tol == 0 {
				tol = 1e-300
			}
			if sub <= tol {
				h.Set(k, k-1, 0)
				if k == hi {
					eig = append(eig, h.At(hi, hi))
					hi--
					iter = 0
					deflated = true
				}
				break
			}
		}
		if deflated {
			continue
		}
		iter++
		if iter > maxIterPerEig {
			return nil, solverr.New(solverr.KindStagnation, "la.eigen",
				"QR eigenvalue iteration failed to converge").WithIter(iter)
		}
		// Wilkinson shift from the trailing 2x2 block, in the form that
		// does not cancel when its eigenvalues are close relative to their
		// size (tr² − 4·det would).
		a := h.At(hi-1, hi-1)
		b := h.At(hi-1, hi)
		c := h.At(hi, hi-1)
		d := h.At(hi, hi)
		mid, half := (a+d)/2, (a-d)/2
		disc := cmplx.Sqrt(half*half + b*c)
		l1, l2 := mid+disc, mid-disc
		shift := l1
		if cmplx.Abs(l2-d) < cmplx.Abs(l1-d) {
			shift = l2
		}
		// Occasionally use an exceptional shift to break symmetry cycles.
		if iter%30 == 0 {
			shift = complex(cmplx.Abs(h.At(hi, hi-1))+cmplx.Abs(h.At(hi-1, hi-2+boolToInt(hi < 2))), 0)
		}
		for i := 0; i <= hi; i++ {
			h.Add(i, i, -shift)
		}
		// QR step via Givens rotations on the Hessenberg block.
		type giv struct{ c, s complex128 }
		rots := make([]giv, hi)
		for k := 0; k < hi; k++ {
			x, y := h.At(k, k), h.At(k+1, k)
			r := math.Hypot(cmplx.Abs(x), cmplx.Abs(y))
			if r == 0 {
				rots[k] = giv{1, 0}
				continue
			}
			cg := x / complex(r, 0)
			sg := y / complex(r, 0)
			rots[k] = giv{cg, sg}
			for j := k; j <= hi; j++ {
				hkj, hk1j := h.At(k, j), h.At(k+1, j)
				h.Set(k, j, cmplx.Conj(cg)*hkj+cmplx.Conj(sg)*hk1j)
				h.Set(k+1, j, -sg*hkj+cg*hk1j)
			}
		}
		// Multiply by rotations on the right: H = R G_0^* ... G_{hi-1}^*.
		for k := 0; k < hi; k++ {
			cg, sg := rots[k].c, rots[k].s
			top := k + 2
			if top > hi {
				top = hi
			}
			for i := 0; i <= top; i++ {
				hik, hik1 := h.At(i, k), h.At(i, k+1)
				h.Set(i, k, hik*cg+hik1*sg)
				h.Set(i, k+1, -hik*cmplx.Conj(sg)+hik1*cmplx.Conj(cg))
			}
		}
		for i := 0; i <= hi; i++ {
			h.Add(i, i, shift)
		}
	}
	return eig, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
