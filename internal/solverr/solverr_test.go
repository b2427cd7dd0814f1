package solverr

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestErrorFormatting(t *testing.T) {
	e := New(KindStagnation, "newton", "no convergence after %d iterations", 20).
		WithT2(1.5e-6).WithStep(7).WithIter(20).WithResidual(3.2e-4).
		Attempt("chord").Attempt("full-newton")
	s := e.Error()
	for _, want := range []string{
		"newton:", "no convergence after 20 iterations", "stagnation",
		"t2=1.5e-06", "step=7", "iter=20", "residual=0.00032",
		"tried: chord → full-newton",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Error() = %q; missing %q", s, want)
		}
	}
}

func TestWrappingPreservesSentinels(t *testing.T) {
	sentinel := errors.New("matrix is singular")
	e := Wrap(KindSingular, "la.lu", sentinel).WithMsg("factorization failed")
	if !errors.Is(e, sentinel) {
		t.Fatal("errors.Is should see through the wrap")
	}
	var se *Error
	if !errors.As(error(e), &se) || se.Kind != KindSingular {
		t.Fatal("errors.As should recover the structured error")
	}
}

func TestIsKindWalksChain(t *testing.T) {
	inner := New(KindSingular, "la.lu", "zero pivot")
	outer := Wrap(KindStagnation, "newton", inner).Attempt("direct-lu")
	if !IsKind(outer, KindStagnation) || !IsKind(outer, KindSingular) {
		t.Fatal("IsKind should match kinds anywhere in the chain")
	}
	if IsKind(outer, KindCanceled) {
		t.Fatal("IsKind must not invent kinds")
	}
	if KindOf(outer) != KindStagnation {
		t.Fatalf("KindOf = %v, want outermost KindStagnation", KindOf(outer))
	}
	if KindOf(errors.New("plain")) != KindUnknown {
		t.Fatal("KindOf on a plain error should be KindUnknown")
	}
}

func TestTrailOfCollectsAcrossChain(t *testing.T) {
	inner := New(KindSingular, "core.linear", "singular").Attempt("gmres").Attempt("sparse-lu")
	outer := Wrap(KindStagnation, "core.envelope.step", inner).Attempt("chord").Attempt("full-newton")
	got := TrailOf(outer)
	want := []string{"chord", "full-newton", "gmres", "sparse-lu"}
	if len(got) != len(want) {
		t.Fatalf("TrailOf = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TrailOf = %v, want %v", got, want)
		}
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite("stage", []float64{1, 2, 3}); err != nil {
		t.Fatalf("finite vector should pass, got %v", err)
	}
	err := CheckFinite("core.envelope", []float64{1, math.NaN(), math.Inf(1)})
	if err == nil {
		t.Fatal("NaN must be rejected")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatal("expected *Error")
	}
	if se.Kind != KindNonFinite || se.Unknown != 1 {
		t.Fatalf("got kind=%v unknown=%d, want non-finite at index 1", se.Kind, se.Unknown)
	}
	if i := FirstNonFinite([]float64{0, 1, math.Inf(-1)}); i != 2 {
		t.Fatalf("FirstNonFinite = %d, want 2", i)
	}
}

func TestCheckFiniteDoesNotAllocateOnSuccess(t *testing.T) {
	x := make([]float64, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if CheckFinite("hot", x) != nil {
			t.Fatal("unexpected failure")
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckFinite on finite input allocated %v times", allocs)
	}
}

func TestCheckPositive(t *testing.T) {
	for _, v := range []float64{1e-300, 1, math.MaxFloat64} {
		if err := CheckPositive("stage", "h", v); err != nil {
			t.Errorf("%v: %v, want nil", v, err)
		}
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckPositive("stage", "h", v); !IsKind(err, KindBadInput) {
			t.Errorf("%v: %v, want a bad-input error", v, err)
		}
	}
}
