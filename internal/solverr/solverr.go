// Package solverr defines the structured failure taxonomy shared by every
// numerical solver in the repository. The paper leaves the nonlinear solve
// open ("any numerical method ... such as Newton-Raphson or continuation",
// §4.1); in a supervised stack that freedom only pays if a failed method
// reports *what* failed, *where*, and *what was tried* so the layer above can
// escalate (see the ladders in internal/core) instead of guessing from an
// opaque string.
//
// An *Error carries:
//
//   - Kind: the failure class (singular matrix, stagnation, non-finite
//     values, exhausted budget, cancellation, ...), the key escalation
//     policies dispatch on;
//   - Stage: the solver stage that failed, dotted-path style
//     ("newton", "krylov.gmres", "core.envelope.step");
//   - position (T2, Step) and progress (Iter, Residual, ResidualHistory)
//     at the failure, when meaningful;
//   - Unknown: the index of the offending unknown for non-finite failures;
//   - Trail: the recovery trail — every rung the supervising ladder tried
//     before giving up, in order.
//
// Errors wrap their cause, so `errors.Is` against the historical sentinels
// (newton.ErrNoConvergence, la.ErrSingular, ...) keeps working, and
// `errors.As(err, &*solverr.Error)` recovers the structure anywhere up the
// call chain. Wrapping an *Error in another *Error is the normal way a
// supervisor adds its own stage and trail on top of a rung's failure.
package solverr

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind classifies a solver failure. Escalation ladders dispatch on it: a
// KindSingular Jacobian wants a different rescue than KindStagnation, and
// KindCanceled must not be retried at all.
type Kind int

const (
	// KindUnknown is a failure the taxonomy cannot classify further.
	KindUnknown Kind = iota
	// KindBadInput is a caller error: dimension mismatches, non-positive
	// steps, missing guesses. Never worth retrying.
	KindBadInput
	// KindSingular is an exactly or numerically singular matrix met during
	// factorization or pivoting.
	KindSingular
	// KindBreakdown is a Krylov-space breakdown (a zero subdiagonal or inner
	// product the recurrence cannot continue past).
	KindBreakdown
	// KindStagnation is an iteration that stopped making progress before
	// reaching tolerance: GMRES at its restart/iteration cap, Newton past
	// MaxIter, a stalled homotopy.
	KindStagnation
	// KindNonFinite is a NaN or Inf detected in a residual, state, or
	// solver direction.
	KindNonFinite
	// KindBudget is an exhausted step or work budget (e.g. the transient
	// MaxSteps safeguard) distinct from per-solve stagnation.
	KindBudget
	// KindCanceled is a context cancellation or deadline; the partial result
	// accumulated so far is still returned by the long-running drivers.
	KindCanceled
)

// String names the kind, for messages and logs.
func (k Kind) String() string {
	switch k {
	case KindBadInput:
		return "bad-input"
	case KindSingular:
		return "singular"
	case KindBreakdown:
		return "breakdown"
	case KindStagnation:
		return "stagnation"
	case KindNonFinite:
		return "non-finite"
	case KindBudget:
		return "budget"
	case KindCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Error is a structured solver failure. Fields that do not apply hold their
// zero markers (NaN for the floats, -1 for the indices), which the formatter
// omits; construct through New/Wrap so the markers are set.
type Error struct {
	Kind  Kind
	Stage string // dotted stage path, e.g. "core.envelope.step"
	Msg   string // human summary of this stage's view of the failure

	T2       float64 // slow time of the failing step (NaN when n/a)
	Step     int     // step index (-1 when n/a)
	Iter     int     // iterations completed at failure (-1 when n/a)
	Residual float64 // last residual norm (NaN when n/a)
	// ResidualHistory is the residual trajectory the failing iteration
	// recorded (most recent last), when the solver keeps one.
	ResidualHistory []float64
	Unknown         int // index of the offending unknown (-1 when n/a)
	// Trail lists the recovery rungs a supervisor tried before this error
	// was produced, in the order attempted.
	Trail []string

	Err error // wrapped cause (sentinel or downstream *Error)
}

// New builds an *Error with the given kind, stage and formatted message.
func New(kind Kind, stage, format string, args ...any) *Error {
	return &Error{
		Kind: kind, Stage: stage, Msg: fmt.Sprintf(format, args...),
		T2: math.NaN(), Step: -1, Iter: -1, Residual: math.NaN(), Unknown: -1,
	}
}

// Wrap builds an *Error around a cause. The message is the cause's; use
// WithMsg to override.
func Wrap(kind Kind, stage string, err error) *Error {
	e := New(kind, stage, "")
	e.Err = err
	return e
}

// WithMsg sets the summary message.
func (e *Error) WithMsg(format string, args ...any) *Error {
	e.Msg = fmt.Sprintf(format, args...)
	return e
}

// WithT2 records the slow time of the failing step.
func (e *Error) WithT2(t2 float64) *Error { e.T2 = t2; return e }

// WithStep records the step index.
func (e *Error) WithStep(step int) *Error { e.Step = step; return e }

// WithIter records the iteration count at failure.
func (e *Error) WithIter(iter int) *Error { e.Iter = iter; return e }

// WithResidual records the final residual norm.
func (e *Error) WithResidual(r float64) *Error { e.Residual = r; return e }

// WithResidualHistory records the residual trajectory (stored as given; the
// caller should pass a copy if it keeps mutating the slice).
func (e *Error) WithResidualHistory(h []float64) *Error {
	e.ResidualHistory = h
	return e
}

// WithUnknown records the offending unknown's index.
func (e *Error) WithUnknown(i int) *Error { e.Unknown = i; return e }

// Attempt appends one rung to the recovery trail.
func (e *Error) Attempt(rung string) *Error {
	e.Trail = append(e.Trail, rung)
	return e
}

// Error formats the failure: stage, message, cause, then the structured
// details and the recovery trail.
func (e *Error) Error() string {
	var b strings.Builder
	if e.Stage != "" {
		b.WriteString(e.Stage)
		b.WriteString(": ")
	}
	switch {
	case e.Msg != "" && e.Err != nil:
		fmt.Fprintf(&b, "%s: %v", e.Msg, e.Err)
	case e.Msg != "":
		b.WriteString(e.Msg)
	case e.Err != nil:
		b.WriteString(e.Err.Error())
	default:
		b.WriteString(e.Kind.String())
	}
	var det []string
	if e.Msg != "" || e.Err != nil {
		det = append(det, e.Kind.String())
	}
	if !math.IsNaN(e.T2) {
		det = append(det, fmt.Sprintf("t2=%.6g", e.T2))
	}
	if e.Step >= 0 {
		det = append(det, fmt.Sprintf("step=%d", e.Step))
	}
	if e.Iter >= 0 {
		det = append(det, fmt.Sprintf("iter=%d", e.Iter))
	}
	if !math.IsNaN(e.Residual) {
		det = append(det, fmt.Sprintf("residual=%.3g", e.Residual))
	}
	if e.Unknown >= 0 {
		det = append(det, fmt.Sprintf("unknown=%d", e.Unknown))
	}
	if len(det) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(det, " "))
	}
	if len(e.Trail) > 0 {
		fmt.Fprintf(&b, " (tried: %s)", strings.Join(e.Trail, " → "))
	}
	return b.String()
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// KindOf returns the kind of the outermost *Error in err's chain, or
// KindUnknown if there is none.
func KindOf(err error) Kind {
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return KindUnknown
}

// IsKind reports whether any *Error in err's chain carries kind k.
func IsKind(err error, k Kind) bool {
	for err != nil {
		var e *Error
		if !errors.As(err, &e) {
			return false
		}
		if e.Kind == k {
			return true
		}
		err = e.Err
	}
	return false
}

// TrailOf collects the full recovery trail recorded along err's chain,
// outermost supervisor first.
func TrailOf(err error) []string {
	var trail []string
	for err != nil {
		var e *Error
		if !errors.As(err, &e) {
			break
		}
		trail = append(trail, e.Trail...)
		err = e.Err
	}
	return trail
}

// FirstNonFinite returns the index of the first NaN or Inf entry of x, or -1
// when every entry is finite. It allocates nothing: the guard runs at stage
// boundaries inside hot loops.
func FirstNonFinite(x []float64) int {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// CheckFinite returns nil when every entry of x is finite, and a
// KindNonFinite error naming the first offending unknown otherwise.
func CheckFinite(stage string, x []float64) error {
	i := FirstNonFinite(x)
	if i < 0 {
		return nil
	}
	return New(KindNonFinite, stage, "non-finite value %v", x[i]).WithUnknown(i)
}

// CheckPositive returns nil when v is a positive finite number, and a
// KindBadInput error naming the parameter otherwise. The negated comparison
// also catches NaN.
func CheckPositive(stage, name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return New(KindBadInput, stage, "%s must be positive and finite, got %v", name, v)
	}
	return nil
}
