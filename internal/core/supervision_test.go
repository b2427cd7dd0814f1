package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dae"
	"repro/internal/faultinject"
	"repro/internal/solverr"
)

// These tests prove the envelope solve-supervision machinery end to end:
// each rung of the nonlinear and linear escalation ladders is forced to run
// by deterministic fault injection, the run still completes, and the
// EnvelopeResult counters report exactly the rescues that happened.
//
// Trigger arithmetic (verified against the planted sites):
//
//   - SiteNewtonFail fires once per newton.Solve call, right after the
//     initial evaluation. The in-step ladder is chord → full Newton → deep
//     damped Newton → source-stepping continuation, so Times(1) exercises
//     rung 2, Times(2) rung 3, Times(3) rung 4. The continuation rung's
//     homotopy halves its λ step on every failure and stalls below 1e-6
//     after 18 consecutive failures (0.25/2^18 < 1e-6), so Times(21) =
//     3 ladder rungs + 18 homotopy solves exhausts the whole ladder exactly
//     once, forcing a single t2 step halving before the unarmed retry lands.
//
//   - SiteGMRESStagnate fires once per krylov.GMRES call, and the linear
//     ladder is GMRES → sparse LU, so every firing sends that solve straight
//     to the direct rung: Times(k) yields k stagnations and k sparse-LU
//     rescues, and Newton sees no linear failure while that rung succeeds.
//
// Plans are armed only after InitialCondition: the IC's own transient and
// shooting Newton solves would otherwise consume the planned firings.

// supervisedEnvelope computes the unarmed IC, arms plan, and runs a short
// envelope (30 slow-time units of the 300-unit control period, H2 = 1).
func supervisedEnvelope(t *testing.T, plan *faultinject.Plan, opt EnvelopeOptions) (*EnvelopeResult, error) {
	t.Helper()
	sys := testVCO(300)
	xhat0, omega0 := solveIC(t, sys, 25)
	opt.N1 = 25
	if opt.H2 == 0 {
		opt.H2 = 1
	}
	defer faultinject.Arm(plan)()
	return Envelope(sys, xhat0, omega0, 30, opt)
}

// requireHealthy asserts the armed run still produced a full-length, finite,
// positive-frequency envelope — rescue must not degrade the result.
func requireHealthy(t *testing.T, res *EnvelopeResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("supervised envelope failed: %v", err)
	}
	if len(res.T2) < 30 {
		t.Fatalf("only %d accepted points, want ≥ 30", len(res.T2))
	}
	for i, w := range res.Omega {
		if !(w > 0) {
			t.Fatalf("ω[%d] = %v, want positive", i, w)
		}
	}
	for _, x := range res.X {
		if i := solverr.FirstNonFinite(x); i >= 0 {
			t.Fatalf("non-finite state %v at unknown %d", x[i], i)
		}
	}
}

func TestFaultNewtonFullRescue(t *testing.T) {
	plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(1))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{})
	requireHealthy(t, res, err)
	if res.FullNewtonRescues != 1 || res.DampedNewtonRescues != 0 || res.ContinuationRescues != 0 {
		t.Fatalf("rescues (full, deep, cont) = (%d, %d, %d), want (1, 0, 0)",
			res.FullNewtonRescues, res.DampedNewtonRescues, res.ContinuationRescues)
	}
	if res.StepHalvings != 0 {
		t.Fatalf("StepHalvings = %d, want 0", res.StepHalvings)
	}
}

func TestFaultNewtonDeepRescue(t *testing.T) {
	plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(2))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{})
	requireHealthy(t, res, err)
	if res.FullNewtonRescues != 1 || res.DampedNewtonRescues != 1 || res.ContinuationRescues != 0 {
		t.Fatalf("rescues (full, deep, cont) = (%d, %d, %d), want (1, 1, 0)",
			res.FullNewtonRescues, res.DampedNewtonRescues, res.ContinuationRescues)
	}
}

func TestFaultNewtonContinuationRescue(t *testing.T) {
	plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(3))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{})
	requireHealthy(t, res, err)
	if res.FullNewtonRescues != 1 || res.DampedNewtonRescues != 1 || res.ContinuationRescues != 1 {
		t.Fatalf("rescues (full, deep, cont) = (%d, %d, %d), want (1, 1, 1)",
			res.FullNewtonRescues, res.DampedNewtonRescues, res.ContinuationRescues)
	}
	if res.StepHalvings != 0 {
		t.Fatalf("StepHalvings = %d, want 0 (continuation should have rescued the step)", res.StepHalvings)
	}
}

func TestFaultNewtonLadderExhaustedHalvesStep(t *testing.T) {
	// 3 ladder rungs + 18 homotopy stall solves = 21 injected failures: the
	// whole ladder exhausts exactly once, the step halves, and the retry at
	// h/2 runs unarmed and succeeds.
	plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(21))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{})
	requireHealthy(t, res, err)
	if res.StepHalvings != 1 {
		t.Fatalf("StepHalvings = %d, want 1", res.StepHalvings)
	}
	if res.FullNewtonRescues != 1 || res.DampedNewtonRescues != 1 || res.ContinuationRescues != 1 {
		t.Fatalf("rescues (full, deep, cont) = (%d, %d, %d), want (1, 1, 1)",
			res.FullNewtonRescues, res.DampedNewtonRescues, res.ContinuationRescues)
	}
}

func TestFaultNewtonPersistentFailureReportsTrail(t *testing.T) {
	// Every Newton solve fails: the ladder exhausts at every step size down
	// to hMin = H2/1024 (10 halvings), and the final error must carry the
	// full recovery trail and a structured classification.
	plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Always())
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{})
	if err == nil {
		t.Fatal("want an error when every Newton solve fails")
	}
	if !solverr.IsKind(err, solverr.KindStagnation) {
		t.Fatalf("error kind = %v, want stagnation in chain: %v", solverr.KindOf(err), err)
	}
	if !strings.Contains(err.Error(), "minimum step") {
		t.Fatalf("error does not name the minimum-step failure: %v", err)
	}
	trail := strings.Join(solverr.TrailOf(err), " ")
	for _, rung := range []string{"chord", "full-newton", "damped-newton", "continuation"} {
		if !strings.Contains(trail, rung) {
			t.Fatalf("recovery trail %q missing rung %q", trail, rung)
		}
	}
	if res == nil || len(res.T2) < 1 {
		t.Fatal("want the partial result (at least the initial point)")
	}
	if res.StepHalvings != 10 {
		t.Fatalf("StepHalvings = %d, want 10 (H2 → H2/1024)", res.StepHalvings)
	}
}

func TestFaultGMRESStagnationLURescue(t *testing.T) {
	plan := faultinject.NewPlan().Fail(faultinject.SiteGMRESStagnate, faultinject.Times(1))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{Linear: LinearMatrixFree})
	requireHealthy(t, res, err)
	if res.LinearGMRESRescues != 0 || res.LinearLURescues != 1 {
		t.Fatalf("linear rescues (gmres, lu) = (%d, %d), want (0, 1)",
			res.LinearGMRESRescues, res.LinearLURescues)
	}
	if res.GMRESStagnations != 1 {
		t.Fatalf("GMRESStagnations = %d, want 1", res.GMRESStagnations)
	}
}

func TestFaultGMRESDoubleFailureLURescue(t *testing.T) {
	plan := faultinject.NewPlan().Fail(faultinject.SiteGMRESStagnate, faultinject.Times(2))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{Linear: LinearMatrixFree})
	requireHealthy(t, res, err)
	if res.LinearGMRESRescues != 0 || res.LinearLURescues != 2 {
		t.Fatalf("linear rescues (gmres, lu) = (%d, %d), want (0, 2)",
			res.LinearGMRESRescues, res.LinearLURescues)
	}
	if res.GMRESStagnations != 2 {
		t.Fatalf("GMRESStagnations = %d, want 2", res.GMRESStagnations)
	}
	if res.FullNewtonRescues != 0 {
		t.Fatalf("FullNewtonRescues = %d, want 0 (the linear ladder must absorb the failure)", res.FullNewtonRescues)
	}
}

func TestFaultGMRESAlwaysFailsStillConverges(t *testing.T) {
	// With GMRES permanently broken, every solve must land on the direct
	// sparse-LU rung — and the run must still complete cleanly.
	plan := faultinject.NewPlan().Fail(faultinject.SiteGMRESStagnate, faultinject.Always())
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{Linear: LinearMatrixFree})
	requireHealthy(t, res, err)
	if res.GMRESSolves == 0 {
		t.Fatal("no linear solves recorded")
	}
	if res.LinearGMRESRescues != 0 || res.LinearLURescues != res.GMRESSolves {
		t.Fatalf("rescues (gmres=%d, lu=%d), want (0, %d) when every GMRES solve fails",
			res.LinearGMRESRescues, res.LinearLURescues, res.GMRESSolves)
	}
}

func TestFaultLinearLadderExhaustedTrail(t *testing.T) {
	// GMRES and the direct rung both fail: the linear ladder's exhaustion
	// error must climb through Newton and the nonlinear ladder with the
	// complete recovery trail.
	plan := faultinject.NewPlan().
		Fail(faultinject.SiteGMRESStagnate, faultinject.Always()).
		Fail(faultinject.SiteSparseLUSingular, faultinject.Always())
	_, err := supervisedEnvelope(t, plan, EnvelopeOptions{Linear: LinearMatrixFree})
	if err == nil {
		t.Fatal("want an error when every linear rung fails")
	}
	if !solverr.IsKind(err, solverr.KindSingular) {
		t.Fatalf("error chain should carry the singular classification: %v", err)
	}
	trail := strings.Join(solverr.TrailOf(err), " ")
	for _, rung := range []string{"gmres", "sparse-lu", "chord", "continuation"} {
		if !strings.Contains(trail, rung) {
			t.Fatalf("recovery trail %q missing rung %q", trail, rung)
		}
	}
}

func TestFaultDenseLUSingularRescued(t *testing.T) {
	// An injected singular factorization on the direct (default) path fails
	// the chord solve's Jacobian update; the full-Newton rung refactors and
	// recovers.
	plan := faultinject.NewPlan().Fail(faultinject.SiteDenseLUSingular, faultinject.Times(1))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{})
	requireHealthy(t, res, err)
	if res.FullNewtonRescues != 1 {
		t.Fatalf("FullNewtonRescues = %d, want 1", res.FullNewtonRescues)
	}
}

func TestFaultResidualNaNRescued(t *testing.T) {
	// A poisoned residual norm makes the chord solve fast-fail as
	// non-finite; the rescue rung must recover without contaminating the
	// accepted state.
	plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonResidualNaN, faultinject.Times(1))
	res, err := supervisedEnvelope(t, plan, EnvelopeOptions{})
	requireHealthy(t, res, err)
	if res.FullNewtonRescues != 1 {
		t.Fatalf("FullNewtonRescues = %d, want 1", res.FullNewtonRescues)
	}
}

// supervisedQP builds an unarmed quasiperiodic guess for the test VCO from
// three slow periods of envelope following, arms plan, and runs the global
// solve on a 15×9 grid. The envelope bootstrap runs before arming so its
// Newton solves do not consume the planned firings.
func supervisedQP(t *testing.T, plan *faultinject.Plan, opt QPOptions) (*QPResult, error) {
	t.Helper()
	const T2 = 80.0
	sys := testVCO(T2)
	xhat0, omega0 := solveIC(t, sys, 15)
	env, err := Envelope(sys, xhat0, omega0, 3*T2, EnvelopeOptions{N1: 15, H2: T2 / 150, Trap: true})
	if err != nil {
		t.Fatal(err)
	}
	guess, err := GuessFromEnvelope(env, T2, 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	opt.N1, opt.N2 = 15, 9
	defer faultinject.Arm(plan)()
	return Quasiperiodic(sys, T2, guess, opt)
}

// The quasiperiodic ladder is the envelope's without the chord rung when
// ChordNewton is off: the first attempt already refreshes the Jacobian every
// iteration, so one injected failure lands on the deep damped rung directly.
func TestFaultQPNewtonRescues(t *testing.T) {
	cases := []struct {
		chord            bool
		fails            int
		full, deep, cont int
	}{
		{chord: true, fails: 1, full: 1},
		{chord: true, fails: 2, full: 1, deep: 1},
		{chord: true, fails: 3, full: 1, deep: 1, cont: 1},
		{chord: false, fails: 1, deep: 1},
		{chord: false, fails: 2, deep: 1, cont: 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("chord=%v/fails=%d", tc.chord, tc.fails), func(t *testing.T) {
			plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(tc.fails))
			res, err := supervisedQP(t, plan, QPOptions{ChordNewton: tc.chord})
			if err != nil {
				t.Fatalf("supervised quasiperiodic solve failed: %v", err)
			}
			for j2, w := range res.Omega {
				if !(w > 0) {
					t.Fatalf("ω[%d] = %v, want positive", j2, w)
				}
			}
			if res.FullNewtonRescues != tc.full || res.DampedNewtonRescues != tc.deep || res.ContinuationRescues != tc.cont {
				t.Fatalf("rescues (full, deep, cont) = (%d, %d, %d), want (%d, %d, %d)",
					res.FullNewtonRescues, res.DampedNewtonRescues, res.ContinuationRescues,
					tc.full, tc.deep, tc.cont)
			}
		})
	}
}

// An exhausted quasiperiodic ladder reports every rung it ran; the chord
// rung appears in the trail only when the first attempt was a chord solve.
func TestFaultQPLadderExhaustedTrail(t *testing.T) {
	for _, chord := range []bool{true, false} {
		t.Run(fmt.Sprintf("chord=%v", chord), func(t *testing.T) {
			plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Always())
			res, err := supervisedQP(t, plan, QPOptions{ChordNewton: chord})
			if err == nil {
				t.Fatal("want an error when every Newton solve fails")
			}
			if res != nil {
				t.Fatal("a failed (non-canceled) solve must not return a result")
			}
			if !solverr.IsKind(err, solverr.KindStagnation) {
				t.Fatalf("error kind = %v, want stagnation in chain: %v", solverr.KindOf(err), err)
			}
			trail := solverr.TrailOf(err)
			joined := strings.Join(trail, " ")
			for _, rung := range []string{"full-newton", "damped-newton", "continuation"} {
				if !strings.Contains(joined, rung) {
					t.Fatalf("recovery trail %q missing rung %q", joined, rung)
				}
			}
			hasChord := false
			for _, r := range trail {
				hasChord = hasChord || r == "chord"
			}
			if hasChord != chord {
				t.Fatalf("trail %q: chord present = %v, want %v", joined, hasChord, chord)
			}
		})
	}
}

func TestFaultCanceledEnvelopeReturnsPartial(t *testing.T) {
	sys := testVCO(300)
	xhat0, omega0 := solveIC(t, sys, 25)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Envelope(sys, xhat0, omega0, 30, EnvelopeOptions{N1: 25, H2: 1, Ctx: ctx})
	if err == nil {
		t.Fatal("want a cancellation error")
	}
	if !solverr.IsKind(err, solverr.KindCanceled) {
		t.Fatalf("error kind = %v, want canceled: %v", solverr.KindOf(err), err)
	}
	if res == nil || len(res.T2) != 1 {
		t.Fatalf("want the partial result with exactly the initial point, got %v", res)
	}
}

// cancelPast cancels a run once it reads the system's inputs past t2 = at,
// which Envelope does as it starts the step that ends beyond at.
type cancelPast struct {
	*dae.SimpleVCO
	at     float64
	cancel context.CancelFunc
}

func (c cancelPast) Input(t2 float64, u []float64) {
	if t2 > c.at {
		c.cancel()
	}
	c.SimpleVCO.Input(t2, u)
}

func TestFaultMidRunCancellationKeepsProgress(t *testing.T) {
	sys := testVCO(300)
	xhat0, omega0 := solveIC(t, sys, 25)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := EnvelopeOptions{N1: 25, H2: 1, Ctx: ctx}
	res, err := Envelope(cancelPast{sys, 5, cancel}, xhat0, omega0, 30, opt)
	if !solverr.IsKind(err, solverr.KindCanceled) {
		t.Fatalf("error kind = %v, want canceled: %v", solverr.KindOf(err), err)
	}
	// Initial point plus the five accepted steps before the cancel.
	if len(res.T2) < 6 {
		t.Fatalf("partial result holds %d points, want ≥ 6", len(res.T2))
	}
	if len(res.T2) > 8 {
		t.Fatalf("run kept stepping after cancellation: %d points", len(res.T2))
	}
}

// cancelOnContinuation cancels the run when the continuation rung reads its
// start inputs: the first inputs read after the step's first three Newton
// attempts (chord, full, deep damped) have failed.
type cancelOnContinuation struct {
	*dae.SimpleVCO
	plan   *faultinject.Plan
	cancel context.CancelFunc
}

func (c cancelOnContinuation) Input(t2 float64, u []float64) {
	if c.plan.Seen(faultinject.SiteNewtonFail) >= 3 {
		c.cancel()
	}
	c.SimpleVCO.Input(t2, u)
}

// TestFaultCancelDuringContinuationIsCanceled checks that a deadline that
// expires inside the continuation rung ends the run as canceled after one
// continuation solve, not as the stagnation of an exhausted λ search.
func TestFaultCancelDuringContinuationIsCanceled(t *testing.T) {
	sys := testVCO(300)
	xhat0, omega0 := solveIC(t, sys, 25)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := faultinject.NewPlan().Fail(faultinject.SiteNewtonFail, faultinject.Times(3))
	defer faultinject.Arm(plan)()
	res, err := Envelope(cancelOnContinuation{sys, plan, cancel}, xhat0, omega0, 30,
		EnvelopeOptions{N1: 25, H2: 1, Ctx: ctx})
	if k := solverr.KindOf(err); k != solverr.KindCanceled {
		t.Fatalf("KindOf = %v, want canceled: %v", k, err)
	}
	if res.ContinuationRescues != 1 || len(res.T2) != 1 {
		t.Fatalf("continuation rescues %d, points %d; want 1 and only the initial point",
			res.ContinuationRescues, len(res.T2))
	}
	if seen := plan.Seen(faultinject.SiteNewtonFail); seen != 4 {
		t.Fatalf("%d Newton solves ran, want 4 (three attempts, one continuation solve)", seen)
	}
}
