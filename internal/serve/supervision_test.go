package serve

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// Served bodies are content-addressed and persisted by the disk tier, so the
// supervision keys are part of the cache identity: a renamed or added key
// would split the cache across a rolling restart. These tests pin the exact
// encoding of both solvers' counters.

func TestSupervisionEnvelopeKeysPinned(t *testing.T) {
	s := core.Stats{
		NewtonIterTotal: 1, LinearSolves: 2, Rejected: 3,
		JacobianEvals: 4, JacobianReuses: 5,
		GMRESSolves: 6, GMRESMatVecs: 7,
		RecycleHits: 8, RecycleHarvests: 9, RecycleInvalidations: 10,
		GMRESStagnations: 11, GMRESBreakdowns: 12,
		LinearGMRESRescues: 13, LinearLURescues: 14, LinearSparseLURescues: 15,
		FullNewtonRescues: 16, DampedNewtonRescues: 17, ContinuationRescues: 18,
		StepHalvings: 19,
	}
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("counter %s is zero: the case must exercise every counter", v.Type().Field(i).Name)
		}
	}
	got := string(mustJSON(&Outcome{Analysis: AnalysisEnvelope, Supervision: supervision(s)}))
	const want = `{"analysis":"envelope","supervision":{` +
		`"continuation_rescues":18,"damped_newton_rescues":17,"full_newton_rescues":16,` +
		`"gmres_breakdowns":12,"gmres_stagnations":11,"jacobian_evals":4,"jacobian_reuses":5,` +
		`"linear_gmres_rescues":13,"linear_lu_rescues":14,"linear_solves":2,` +
		`"linear_sparse_lu_rescues":15,"newton_iter_total":1,"rejected_steps":3,"step_halvings":19}}`
	if got != want {
		t.Fatalf("envelope supervision body\n got %s\nwant %s", got, want)
	}
}

func TestSupervisionQPKeysPinned(t *testing.T) {
	// Everything a quasiperiodic solve fills; it has no t2 steps, so the
	// step counters stay zero and their keys are pruned.
	s := core.Stats{
		NewtonIterTotal: 1, JacobianEvals: 4, JacobianReuses: 5,
		GMRESSolves: 6, GMRESMatVecs: 7,
		RecycleHits: 8, RecycleHarvests: 9, RecycleInvalidations: 10,
		GMRESStagnations: 11, GMRESBreakdowns: 12,
		LinearGMRESRescues: 13, LinearLURescues: 14, LinearSparseLURescues: 15,
		FullNewtonRescues: 16, DampedNewtonRescues: 17, ContinuationRescues: 18,
	}
	got := string(mustJSON(&Outcome{Analysis: AnalysisQuasiperiodic, Supervision: supervision(s)}))
	const want = `{"analysis":"quasiperiodic","supervision":{` +
		`"continuation_rescues":18,"damped_newton_rescues":17,"full_newton_rescues":16,` +
		`"gmres_breakdowns":12,"gmres_stagnations":11,"jacobian_evals":4,"jacobian_reuses":5,` +
		`"linear_gmres_rescues":13,"linear_lu_rescues":14,"linear_sparse_lu_rescues":15,` +
		`"newton_iter_total":1}}`
	if got != want {
		t.Fatalf("quasiperiodic supervision body\n got %s\nwant %s", got, want)
	}

	// A converged dense solve reports only its Newton work, and an all-zero
	// record drops the supervision object entirely.
	got = string(mustJSON(&Outcome{Analysis: AnalysisQuasiperiodic,
		Supervision: supervision(core.Stats{NewtonIterTotal: 2, JacobianEvals: 2})}))
	if want := `{"analysis":"quasiperiodic","supervision":{"jacobian_evals":2,"newton_iter_total":2}}`; got != want {
		t.Fatalf("pruned body\n got %s\nwant %s", got, want)
	}
	got = string(mustJSON(&Outcome{Analysis: AnalysisQuasiperiodic, Supervision: supervision(core.Stats{})}))
	if want := `{"analysis":"quasiperiodic"}`; got != want {
		t.Fatalf("empty body\n got %s\nwant %s", got, want)
	}
}
