// Package faultinject is a deterministic, site-addressable fault-injection
// harness for the solver stack. Production code plants named sites at the
// points where numerical failure can originate (GMRES stagnation, singular
// Jacobians, NaN residuals, slow device evaluations); tests arm a Plan that
// forces chosen sites to fire at chosen occurrences, proving that every rung
// of the escalation ladders actually runs and that the supervised pipeline
// still lands within golden tolerance.
//
// The harness is built around two hard requirements:
//
//   - Zero unarmed cost. `Fire` is a single atomic pointer load and nil
//     check when nothing is armed — safe to leave in the hot loops that the
//     alloc-budget and determinism tests pin. No global locks, no map
//     lookups, no time calls on the fast path.
//
//   - Determinism. Triggers count occurrences per site (After/Every/Times),
//     not wall-clock or randomness, so an armed run is exactly reproducible:
//     the i-th evaluation of a site fires or not regardless of scheduling.
//     Occurrence counters are per-site atomics, so concurrent workers see a
//     consistent global ordering of "how many times has this site been hit"
//     even though which worker observes the firing occurrence may vary.
//     Sites used inside parallel regions should therefore be planted where
//     the call order is deterministic (all current sites are).
//
// Typical use:
//
//	defer faultinject.Arm(faultinject.NewPlan().
//		Fail(faultinject.SiteGMRESStagnate, faultinject.Times(2)))()
//
// Only one plan may be armed at a time; Arm returns the disarm func and
// panics if a plan is already armed (tests that arm must not run in
// parallel with each other).
package faultinject

import (
	"sync/atomic"
)

// Site names an injection point. Sites live here, not in the packages that
// plant them, so a test can enumerate every fault the stack claims to
// survive without importing solver internals.
type Site string

const (
	// SiteGMRESStagnate forces krylov.GMRES to stop as stagnated (no
	// convergence) regardless of the true residual.
	SiteGMRESStagnate Site = "krylov.gmres.stagnate"
	// SiteDenseLUSingular forces la.LU.FactorInto to report a singular matrix.
	SiteDenseLUSingular Site = "la.lu.singular"
	// SiteSparseLUSingular forces sparse.FactorLU / Refactor to report a
	// singular matrix.
	SiteSparseLUSingular Site = "sparse.lu.singular"
	// SiteNewtonResidualNaN poisons the residual norm seen by newton.Solve
	// with NaN, exercising the non-finite fast-fail.
	SiteNewtonResidualNaN Site = "newton.residual.nan"
	// SiteNewtonFail forces newton.Solve to return ErrNoConvergence after
	// its first iteration, exercising the nonlinear escalation ladder.
	SiteNewtonFail Site = "newton.solve.fail"
	// SiteSlowEval stalls a DAE residual evaluation (via the plan's Sleep
	// hook) so cancellation and deadline paths can be exercised quickly.
	SiteSlowEval Site = "dae.eval.slow"
	// SiteForwardTransport fails a cluster forwarding attempt at the
	// transport layer (before any bytes are sent), exercising the
	// retry/backoff and circuit-breaker paths deterministically.
	SiteForwardTransport Site = "serve.forward.transport"
	// SiteReplicateTransport fails a replication push the same way,
	// exercising the bounded replication retry.
	SiteReplicateTransport Site = "serve.replicate.transport"
	// SiteHeartbeatDrop drops a membership heartbeat or join exchange,
	// exercising failure detection and partition behavior.
	SiteHeartbeatDrop Site = "serve.heartbeat.drop"
)

// Trigger decides, from the 1-based occurrence number of a site, whether
// that occurrence fires.
type Trigger struct {
	after int // fire only when occurrence > after
	every int // of the eligible occurrences, fire every n-th (0 = all)
	times int // stop after this many firings (0 = unlimited)
}

// Always fires on every occurrence.
func Always() Trigger { return Trigger{} }

// Times fires on the first n occurrences, then goes quiet.
func Times(n int) Trigger { return Trigger{times: n} }

// After skips the first n occurrences, then fires on every later one.
func After(n int) Trigger { return Trigger{after: n} }

// Every fires on every n-th occurrence (n, 2n, ...).
func Every(n int) Trigger { return Trigger{every: n} }

// AfterTimes skips the first `after` occurrences, then fires `times` times.
func AfterTimes(after, times int) Trigger { return Trigger{after: after, times: times} }

// rule is an armed trigger with its firing counters.
type rule struct {
	trig  Trigger
	seen  atomic.Int64 // occurrences observed
	fired atomic.Int64 // occurrences that fired
}

func (r *rule) fire() bool {
	n := r.seen.Add(1)
	if n <= int64(r.trig.after) {
		return false
	}
	if r.trig.every > 1 && (n-int64(r.trig.after))%int64(r.trig.every) != 0 {
		return false
	}
	if r.trig.times > 0 {
		if f := r.fired.Add(1); f > int64(r.trig.times) {
			return false
		}
		return true
	}
	r.fired.Add(1)
	return true
}

// Plan is a set of armed rules. Build with NewPlan + Fail, then Arm.
type Plan struct {
	rules map[Site]*rule
	// Sleep, when non-nil, is called by SiteSlowEval firings in place of a
	// real stall, so cancellation tests stay fast. A typical hook blocks on
	// the test's context.
	Sleep func()
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{rules: make(map[Site]*rule)} }

// Fail arms site with trigger t. Repeating a site replaces its trigger.
func (p *Plan) Fail(site Site, t Trigger) *Plan {
	p.rules[site] = &rule{trig: t}
	return p
}

// WithSleep sets the SiteSlowEval stall hook.
func (p *Plan) WithSleep(f func()) *Plan {
	p.Sleep = f
	return p
}

// Seen returns how many times site has been evaluated since arming.
func (p *Plan) Seen(site Site) int {
	if r, ok := p.rules[site]; ok {
		return int(r.seen.Load())
	}
	return 0
}

// Fired returns how many times site actually fired since arming.
func (p *Plan) Fired(site Site) int {
	if r, ok := p.rules[site]; ok {
		n := r.fired.Load()
		if p.rules[site].trig.times > 0 && n > int64(p.rules[site].trig.times) {
			n = int64(p.rules[site].trig.times)
		}
		return int(n)
	}
	return 0
}

// armed is the active plan. Nil when disarmed — the only state production
// code pays for.
var armed atomic.Pointer[Plan]

// Arm activates the plan and returns the disarm func. Panics if another plan
// is armed: fault tests are whole-process and must not overlap.
func Arm(p *Plan) (disarm func()) {
	if !armed.CompareAndSwap(nil, p) {
		panic("faultinject: a plan is already armed")
	}
	return func() { armed.CompareAndSwap(p, nil) }
}

// Fire reports whether site fires at this occurrence. The unarmed path is a
// single atomic load.
func Fire(site Site) bool {
	p := armed.Load()
	if p == nil {
		return false
	}
	r, ok := p.rules[site]
	if !ok {
		return false
	}
	return r.fire()
}

// FireSlow fires SiteSlowEval and, when it fires, runs the plan's Sleep hook
// (if any). Returns whether the site fired.
func FireSlow() bool {
	p := armed.Load()
	if p == nil {
		return false
	}
	r, ok := p.rules[SiteSlowEval]
	if !ok || !r.fire() {
		return false
	}
	if p.Sleep != nil {
		p.Sleep()
	}
	return true
}

// Armed reports whether any plan is active (for tests and diagnostics).
func Armed() bool { return armed.Load() != nil }
