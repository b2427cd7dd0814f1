package newton

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
	"repro/internal/solverr"
)

func quadraticProblem() Problem {
	// F(x) = [x0² - 4, x1 - 1] -> roots (±2, 1).
	return DenseProblem(2,
		func(x, f []float64) error {
			f[0] = x[0]*x[0] - 4
			f[1] = x[1] - 1
			return nil
		},
		func(x []float64, j *la.Dense) error {
			j.Zero()
			j.Set(0, 0, 2*x[0])
			j.Set(1, 1, 1)
			return nil
		})
}

func TestNewtonQuadratic(t *testing.T) {
	x := []float64{3, 0}
	res, err := Solve(quadraticProblem(), x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(x[0]-2) > 1e-8 || math.Abs(x[1]-1) > 1e-8 {
		t.Fatalf("x = %v", x)
	}
}

func TestNewtonQuadraticConvergenceFast(t *testing.T) {
	x := []float64{2.5, 1}
	res, err := Solve(quadraticProblem(), x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 8 {
		t.Fatalf("quadratic convergence expected, took %d iterations", res.Iterations)
	}
}

func TestNewtonLinearSystemOneStep(t *testing.T) {
	a := la.DenseFromRows([][]float64{{3, 1}, {1, 2}})
	b := []float64{5, 5}
	p := DenseProblem(2,
		func(x, f []float64) error {
			a.MulVec(x, f)
			la.Axpy(-1, b, f)
			return nil
		},
		func(x []float64, j *la.Dense) error {
			j.CopyFrom(a)
			return nil
		})
	x := []float64{0, 0}
	res, err := Solve(p, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("linear problem should converge in 1 step, took %d", res.Iterations)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("x = %v", x)
	}
}

func TestNewtonDampingOnSteepProblem(t *testing.T) {
	// atan has a tiny Newton basin without damping.
	p := DenseProblem(1,
		func(x, f []float64) error { f[0] = math.Atan(x[0]); return nil },
		func(x []float64, j *la.Dense) error {
			j.Set(0, 0, 1/(1+x[0]*x[0]))
			return nil
		})
	x := []float64{5}
	res, err := Solve(p, x, Options{Damping: true, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(x[0]) > 1e-8 {
		t.Fatalf("atan root not found: %v, %+v", x, res)
	}
}

func TestNewtonSingularJacobianReported(t *testing.T) {
	p := DenseProblem(1,
		func(x, f []float64) error { f[0] = 1; return nil }, // no root
		func(x []float64, j *la.Dense) error { j.Set(0, 0, 0); return nil })
	x := []float64{0}
	if _, err := Solve(p, x, Options{}); err == nil {
		t.Fatal("expected error on singular Jacobian")
	}
}

func TestNewtonNoConvergenceKeepsBest(t *testing.T) {
	p := DenseProblem(1,
		func(x, f []float64) error { f[0] = x[0]*x[0] + 1; return nil }, // no real root
		func(x []float64, j *la.Dense) error { j.Set(0, 0, 2*x[0]+1e-3); return nil })
	x := []float64{1}
	_, err := Solve(p, x, Options{MaxIter: 15})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("expected ErrNoConvergence, got %v", err)
	}
	if math.IsNaN(x[0]) || math.IsInf(x[0], 0) {
		t.Fatal("best iterate should be finite")
	}
}

func TestNewtonDimensionMismatch(t *testing.T) {
	if _, err := Solve(quadraticProblem(), []float64{1}, Options{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestNewtonRandomPolynomialRootsProperty(t *testing.T) {
	// x³ = c has a unique real root c^{1/3}: Newton from a good start finds it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := rng.NormFloat64() * 10
		if math.Abs(c) < 1e-3 {
			return true
		}
		p := DenseProblem(1,
			func(x, f []float64) error { f[0] = x[0]*x[0]*x[0] - c; return nil },
			func(x []float64, j *la.Dense) error { j.Set(0, 0, 3*x[0]*x[0]); return nil })
		x := []float64{c} // same sign as the root
		_, err := Solve(p, x, Options{Damping: true, MaxIter: 200})
		if err != nil {
			return false
		}
		want := math.Cbrt(c)
		return math.Abs(x[0]-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHomotopySolvesHardProblem(t *testing.T) {
	// F(x; λ) = x³ + x − 10λ. At λ=0 trivial; at λ=1 root ≈ 2.
	mk := func(lambda float64) Problem {
		return DenseProblem(1,
			func(x, f []float64) error { f[0] = x[0]*x[0]*x[0] + x[0] - 10*lambda; return nil },
			func(x []float64, j *la.Dense) error { j.Set(0, 0, 3*x[0]*x[0]+1); return nil })
	}
	x := []float64{0}
	res, err := Homotopy(mk, x, Options{Damping: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("homotopy final stage not converged")
	}
	if math.Abs(x[0]*x[0]*x[0]+x[0]-10) > 1e-8 {
		t.Fatalf("homotopy root wrong: %v", x[0])
	}
}

func TestHomotopyStallsGracefully(t *testing.T) {
	mk := func(lambda float64) Problem {
		return DenseProblem(1,
			func(x, f []float64) error { f[0] = x[0]*x[0] + lambda; return nil }, // no root for λ>0
			func(x []float64, j *la.Dense) error { j.Set(0, 0, 2*x[0]+1e-6); return nil })
	}
	x := []float64{0}
	if _, err := Homotopy(mk, x, Options{MaxIter: 10}); err == nil {
		t.Fatal("expected homotopy to fail")
	}
}

// TestHomotopyCanceledReturnsAtOnce checks that a canceled inner solve ends
// the continuation at once, with x restored and the cancellation's kind,
// instead of being taken for a failed λ step and halved into stagnation.
func TestHomotopyCanceledReturnsAtOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	mk := func(lambda float64) Problem {
		calls++
		return DenseProblem(1,
			func(x, f []float64) error { f[0] = x[0]*x[0]*x[0] + x[0] - 10*lambda; return nil },
			func(x []float64, j *la.Dense) error { j.Set(0, 0, 3*x[0]*x[0]+1); return nil })
	}
	x := []float64{0.5}
	_, err := Homotopy(mk, x, Options{Damping: true, Ctx: ctx})
	if k := solverr.KindOf(err); k != solverr.KindCanceled {
		t.Fatalf("KindOf = %v, want canceled: %v", k, err)
	}
	if calls != 1 {
		t.Errorf("made %d problems, want 1 (no retry after a cancellation)", calls)
	}
	if x[0] != 0.5 {
		t.Errorf("x = %v, want the start 0.5 restored", x[0])
	}
}

func TestNewtonNonFiniteResidualAborts(t *testing.T) {
	p := DenseProblem(1,
		func(x, f []float64) error { f[0] = math.Exp(x[0]); return nil }, // no root, explodes
		func(x []float64, j *la.Dense) error { j.Set(0, 0, math.Exp(x[0])); return nil })
	x := []float64{700} // exp overflows to +Inf
	if _, err := Solve(p, x, Options{MaxIter: 5}); err == nil {
		t.Fatal("expected failure on non-finite residual")
	}
	if math.IsNaN(x[0]) {
		t.Fatal("best iterate should not be NaN")
	}
}

func TestNewtonEvalErrorDuringDamping(t *testing.T) {
	// Evaluation errors on trial points must be survivable while damping.
	calls := 0
	p := DenseProblem(1,
		func(x, f []float64) error {
			calls++
			if x[0] < 0 {
				return errors.New("model outside domain")
			}
			f[0] = x[0]*x[0] - 4
			return nil
		},
		func(x []float64, j *la.Dense) error { j.Set(0, 0, 2*x[0]); return nil })
	x := []float64{0.1} // first full step goes far negative
	res, err := Solve(p, x, Options{Damping: true, MaxIter: 100})
	if err != nil {
		t.Fatalf("damping should recover from domain errors: %v", err)
	}
	if !res.Converged || math.Abs(x[0]-2) > 1e-8 {
		t.Fatalf("x = %v", x)
	}
}

func TestNewtonZeroUnknowns(t *testing.T) {
	p := Problem{N: 0,
		Eval:     func(x, f []float64) error { return nil },
		Jacobian: func(x []float64) (LinearSolve, error) { return nil, nil },
	}
	res, err := Solve(p, nil, Options{})
	if err != nil || !res.Converged {
		t.Fatalf("empty problem should trivially converge: %v %+v", err, res)
	}
}

func TestNewtonInitialEvalError(t *testing.T) {
	p := DenseProblem(1,
		func(x, f []float64) error { return errors.New("boom") },
		func(x []float64, j *la.Dense) error { return nil })
	if _, err := Solve(p, []float64{0}, Options{}); err == nil {
		t.Fatal("expected initial evaluation error")
	}
}

// mildProblem is a well-conditioned smooth system whose Jacobian varies
// slowly, the regime chord iteration is designed for.
func mildProblem(jacCalls *int) Problem {
	return Problem{
		N: 2,
		Eval: func(x, f []float64) error {
			f[0] = x[0] + 0.1*math.Sin(x[1]) - 0.3
			f[1] = x[1] + 0.1*math.Cos(x[0]) - 0.7
			return nil
		},
		Jacobian: func(x []float64) (LinearSolve, error) {
			*jacCalls++
			j := la.NewDense(2, 2)
			j.Set(0, 0, 1)
			j.Set(0, 1, 0.1*math.Cos(x[1]))
			j.Set(1, 0, -0.1*math.Sin(x[0]))
			j.Set(1, 1, 1)
			return la.FactorLU(j)
		},
	}
}

// TestChordReusesJacobian checks that JacobianReuse factors once, recycles
// the factorization for the remaining iterations, reports the reuse counts,
// and still converges to the same root as full Newton.
func TestChordReusesJacobian(t *testing.T) {
	var fullCalls int
	xFull := []float64{0, 0}
	resFull, err := Solve(mildProblem(&fullCalls), xFull, Options{TolF: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	var chordCalls int
	xChord := []float64{0, 0}
	resChord, err := Solve(mildProblem(&chordCalls), xChord, Options{TolF: 1e-12, JacobianReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resChord.Converged {
		t.Fatal("chord solve did not converge")
	}
	if chordCalls != 1 || resChord.JacobianEvals != 1 {
		t.Errorf("chord mode factored %d times (reported %d), want 1", chordCalls, resChord.JacobianEvals)
	}
	if resChord.JacobianReuses != resChord.Iterations-1 {
		t.Errorf("JacobianReuses = %d with %d iterations, want %d",
			resChord.JacobianReuses, resChord.Iterations, resChord.Iterations-1)
	}
	if resFull.JacobianEvals != fullCalls || resFull.JacobianReuses != 0 {
		t.Errorf("full Newton stats: evals %d (calls %d), reuses %d", resFull.JacobianEvals, fullCalls, resFull.JacobianReuses)
	}
	for i := range xFull {
		if math.Abs(xFull[i]-xChord[i]) > 1e-10 {
			t.Errorf("roots differ at %d: %g vs %g", i, xFull[i], xChord[i])
		}
	}
}

// TestChordRefreshOnSlowContraction checks the stale policy: a Jacobian that
// is badly wrong at the start must be refreshed rather than reused forever.
func TestChordRefreshOnSlowContraction(t *testing.T) {
	var calls int
	p := quadraticProblem() // J depends strongly on x: chord from afar contracts slowly
	inner := p.Jacobian
	p.Jacobian = func(x []float64) (LinearSolve, error) {
		calls++
		return inner(x)
	}
	x := []float64{40, 0}
	res, err := Solve(p, x, Options{TolF: 1e-12, JacobianReuse: true, ReuseContraction: 0.5, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if calls < 2 {
		t.Errorf("expected refreshes on slow contraction, got %d Jacobian calls", calls)
	}
	if math.Abs(x[0]-2) > 1e-8 {
		t.Errorf("root = %g, want 2", x[0])
	}
}

// TestChordReuseAcrossSolves carries a ReuseState across nearby solves and
// checks the second solve performs zero fresh factorizations.
func TestChordReuseAcrossSolves(t *testing.T) {
	var calls int
	p := mildProblem(&calls)
	reuse := &ReuseState{}
	opt := Options{TolF: 1e-10, JacobianReuse: true, Reuse: reuse}
	x := []float64{0, 0}
	if _, err := Solve(p, x, opt); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !reuse.Cached() {
		t.Fatalf("first solve: %d factorizations, cached=%v", calls, reuse.Cached())
	}
	// Perturb the start slightly: the cached factorization still contracts.
	x[0] += 1e-3
	res, err := Solve(p, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.JacobianEvals != 0 || calls != 1 {
		t.Errorf("second solve refactored: evals=%d total calls=%d, want 0 and 1", res.JacobianEvals, calls)
	}
	reuse.Invalidate()
	if reuse.Cached() {
		t.Error("Invalidate left the cache populated")
	}
	x[0] += 1e-3
	res, err = Solve(p, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.JacobianEvals != 1 {
		t.Errorf("post-invalidate solve: evals=%d, want 1", res.JacobianEvals)
	}
}

// TestWorkspaceReuseMatchesFresh checks that supplying a Workspace changes
// neither the iterates nor the result, and removes the per-solve allocations.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	solve := func(opt Options) ([]float64, Result) {
		x := []float64{3, 0}
		res, err := Solve(quadraticProblem(), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}
	xFresh, resFresh := solve(Options{})
	ws := NewWorkspace(2)
	xWs, resWs := solve(Options{Work: ws})
	if resFresh != resWs {
		t.Errorf("results differ: %+v vs %+v", resFresh, resWs)
	}
	for i := range xFresh {
		if xFresh[i] != xWs[i] {
			t.Errorf("iterates differ at %d: %v vs %v", i, xFresh[i], xWs[i])
		}
	}
}
