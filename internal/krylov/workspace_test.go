package krylov

import (
	"testing"

	"repro/internal/la"
)

// TestWorkspaceBitwiseIdentical proves that solving with a reused Workspace
// yields bit-for-bit the same iterates and counters as fresh per-solve
// allocation across a sequence of different right-hand sides (so the reused
// buffers carry real stale data in between).
func TestWorkspaceBitwiseIdentical(t *testing.T) {
	n := 40
	a := randSPDish(n, 7)
	op := DenseOp{M: a}
	opt := Options{Tol: 1e-11, Restart: 8, MaxIter: 400}

	rhs := make([][]float64, 5)
	for s := range rhs {
		rhs[s] = make([]float64, n)
		for i := range rhs[s] {
			rhs[s][i] = float64((s+1)*(i%7)) - 2.5
		}
	}

	t.Run("GMRES", func(t *testing.T) {
		ws := NewWorkspace()
		for s, b := range rhs {
			xf := make([]float64, n)
			xw := make([]float64, n)
			rf, ef := GMRES(op, b, xf, opt)
			wopt := opt
			wopt.Work = ws
			rw, ew := GMRES(op, b, xw, wopt)
			if (ef == nil) != (ew == nil) {
				t.Fatalf("solve %d: error mismatch %v vs %v", s, ef, ew)
			}
			if rf != rw {
				t.Fatalf("solve %d: result mismatch %+v vs %+v", s, rf, rw)
			}
			for i := range xf {
				if xf[i] != xw[i] {
					t.Fatalf("solve %d: x[%d] = %v (fresh) vs %v (workspace)", s, i, xf[i], xw[i])
				}
			}
		}
	})
}

// TestWorkspaceSteadyStateAllocs pins the point of the workspace: after the
// first solve sizes the buffers, further GMRES solves through it allocate
// nothing.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	n := 40
	a := randSPDish(n, 11)
	op := DenseOp{M: a}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 1.5
	}
	x := make([]float64, n)
	ws := NewWorkspace()
	opt := Options{Tol: 1e-11, Restart: 8, MaxIter: 400, Work: ws}
	if _, err := GMRES(op, b, x, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		la.Fill(x, 0)
		if _, err := GMRES(op, b, x, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("GMRES with workspace allocated %v per solve after warmup", allocs)
	}
}

// TestWorkspaceResize covers the resize path: a workspace sized for one shape
// must transparently regrow for a larger problem and still match fresh
// allocation bitwise.
func TestWorkspaceResize(t *testing.T) {
	ws := NewWorkspace()
	for _, n := range []int{10, 40, 25} {
		a := randSPDish(n, int64(n))
		op := DenseOp{M: a}
		b := make([]float64, n)
		for i := range b {
			b[i] = 1 + float64(i%3)
		}
		xf := make([]float64, n)
		xw := make([]float64, n)
		opt := Options{Tol: 1e-11, Restart: 8, MaxIter: 400}
		rf, ef := GMRES(op, b, xf, opt)
		opt.Work = ws
		rw, ew := GMRES(op, b, xw, opt)
		if (ef == nil) != (ew == nil) || rf != rw {
			t.Fatalf("n=%d: mismatch %+v/%v vs %+v/%v", n, rf, ef, rw, ew)
		}
		for i := range xf {
			if xf[i] != xw[i] {
				t.Fatalf("n=%d: x[%d] differs", n, i)
			}
		}
	}
}
