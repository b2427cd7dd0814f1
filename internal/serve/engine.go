package serve

import (
	"context"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/mpde"
	"repro/internal/netlist"
	"repro/internal/shooting"
	"repro/internal/solverr"
	"repro/internal/transient"
)

// matrixFreeCutover is the bordered-system unknown count above which the
// engine switches the WaMPDE linear solves to the matrix-free spectral
// operator: below it the dense path's small factorizations are cheap (and
// bitwise-historical); above it the dense Jacobian's quadratic memory and
// cubic factorization dominate the solve. Selection depends only on the
// canonical request (grid sizes × system dimension), so a cached response
// stays a pure function of the request.
const matrixFreeCutover = 1500

// maxSeriesPoints bounds every time series in a response body. Longer runs
// are decimated with a fixed stride, so the body size (and hence the cache
// budget arithmetic) stays bounded regardless of how many steps a solve
// took.
const maxSeriesPoints = 256

// Stats are per-stage wall-clock timings of one fresh solve. They feed the
// metrics only — never the response body, which must be a pure function of
// the canonical request for the bitwise cache-identity guarantee to hold.
type Stats struct {
	BuildNS, ICNS, SolveNS int64
}

// Engine turns a canonical request into an outcome. Implementations must be
// deterministic: the same Canonical must produce a byte-identical encoded
// Outcome on every call (the engine below inherits this from the solver
// determinism contract pinned by the repository's determinism tests).
type Engine interface {
	Solve(ctx context.Context, c *Canonical) (*Outcome, Stats, error)
}

// Outcome is the analysis-specific response payload. Exactly one of the
// per-analysis fields is set. On a canceled or failed run the engine still
// returns the partial outcome computed so far (with Partial set) alongside
// the error; the error boundary embeds it in the error body.
type Outcome struct {
	Analysis    string         `json:"analysis"`
	Partial     bool           `json:"partial,omitempty"`
	Transient   *TransientOut  `json:"transient,omitempty"`
	Envelope    *EnvelopeOut   `json:"envelope,omitempty"`
	Quasi       *QuasiOut      `json:"quasiperiodic,omitempty"`
	Shooting    *ShootingOut   `json:"shooting,omitempty"`
	HB          *HBOut         `json:"hb,omitempty"`
	Supervision map[string]int `json:"supervision,omitempty"`
}

// TransientOut summarizes a transient run: the observed variable's
// decimated waveform plus the final full state.
type TransientOut struct {
	Steps int       `json:"steps"`
	TEnd  float64   `json:"t_end"`
	Var   string    `json:"var"`
	T     []float64 `json:"t"`
	X     []float64 `json:"x"`
	Final []float64 `json:"final"`
}

// EnvelopeOut summarizes an envelope-following WaMPDE run: the local
// frequency and warping phase along t2 (decimated).
type EnvelopeOut struct {
	Steps      int       `json:"steps"`
	T2         []float64 `json:"t2"`
	Omega      []float64 `json:"omega"`
	Phi        []float64 `json:"phi"`
	FinalOmega float64   `json:"final_omega"`
}

// QuasiOut summarizes a quasiperiodic WaMPDE solve.
type QuasiOut struct {
	T2Period  float64   `json:"t2_period"`
	OmegaMean float64   `json:"omega_mean"`
	Omega     []float64 `json:"omega"`
}

// ShootingOut summarizes a periodic steady state from shooting.
type ShootingOut struct {
	Period float64   `json:"period"`
	Freq   float64   `json:"freq"`
	X0     []float64 `json:"x0"`
}

// HBOut summarizes a harmonic-balance solve: the period and the magnitude
// spectrum of the observed variable's leading harmonics.
type HBOut struct {
	Period    float64   `json:"period"`
	Freq      float64   `json:"freq"`
	Harmonics []float64 `json:"harmonics"`
}

// CircuitEngine is the real engine: it builds the requested circuit and
// runs the requested analysis under the job context.
type CircuitEngine struct{}

// buildSystem compiles the canonical request's circuit.
func (CircuitEngine) buildSystem(c *Canonical) (*circuit.System, error) {
	if base, stages, _ := parseGeneratorCircuit(c.Circuit); base != "" {
		// Generator circuits: render the netlist (a DC control override flows
		// into the generated control sources) and compile it like any other.
		src, err := generatorFor(base)(stages, c.VCtlDC)
		if err != nil {
			return nil, solverr.Wrap(solverr.KindBadInput, "serve.engine", err)
		}
		return compile(src, solverr.KindUnknown)
	}
	if base, duty, fsw, _ := parseConverterCircuit(c.Circuit); base != "" {
		src, err := converterGeneratorFor(base)(duty, fsw)
		if err != nil {
			return nil, solverr.Wrap(solverr.KindBadInput, "serve.engine", err)
		}
		return compile(src, solverr.KindUnknown)
	}
	if c.Circuit != "" {
		p := circuit.DefaultVCOParams()
		if c.Circuit == CircuitPaperVCOAir {
			p = circuit.AirVCOParams()
		}
		if c.VCtlDC != 0 {
			// The sweep knob: freeze the control at a DC value so a family
			// of requests samples the tuning curve.
			p.VCtl = circuit.DC(c.VCtlDC)
		}
		vco, err := circuit.NewVCO(p)
		if err != nil {
			return nil, solverr.Wrap(solverr.KindBadInput, "serve.engine", err)
		}
		return vco.System, nil
	}
	return compile(c.Netlist, solverr.KindBadInput)
}

// compile parses and builds netlist source. A failure has the given kind: a
// client's netlist is bad input, while a generated one failing is the
// server's own fault.
func compile(src string, kind solverr.Kind) (*circuit.System, error) {
	ckt, err := netlist.Parse(src)
	if err != nil {
		return nil, solverr.Wrap(kind, "serve.engine", err)
	}
	sys, err := ckt.Build()
	if err != nil {
		return nil, solverr.Wrap(kind, "serve.engine", err)
	}
	return sys, nil
}

// needsOscVar reports whether the canonical request runs an analysis that
// requires an oscillation variable (autonomous phase condition).
func (c *Canonical) needsOscVar() bool {
	if base, _, _, _ := parseConverterCircuit(c.Circuit); base != "" {
		// Converters run forced analyses only: the ripple envelope pins ω to
		// the PWM frequency, so there is no phase condition to anchor.
		return false
	}
	switch c.Analysis {
	case AnalysisEnvelope, AnalysisQuasiperiodic:
		return true
	case AnalysisShooting, AnalysisHB:
		return c.Period == 0 // autonomous variant
	}
	return false
}

// denseEntries is the number of float64 entries the solve of c on an
// n-state system holds in dense matrices, at the largest, with the same
// matrixFreeCutover selection the solve makes. A dense linear system of
// total unknowns holds its Jacobian and its LU factors, 2·total². Its total
// is N1·N2·n + N2 on a dense collocation grid (N2 = 1 for an envelope and
// for harmonic balance, whose N1 is nharm) and at most n + 1 for the DC,
// transient and shooting solves every analysis runs. Matrix-free
// quasiperiodic instead holds N2 line blocks of (N1·n)² and block Jacobi's
// factored copy of each, 2·N2·(N1·n)²; a matrix-free envelope holds no
// dense matrix of the grid's size.
func (c *Canonical) denseEntries(n int) float64 {
	square := func(m int) float64 { return 2 * float64(m) * float64(m) }
	switch c.Analysis {
	case AnalysisEnvelope:
		// Converter ripple envelopes always take the dense path.
		base, _, _, _ := parseConverterCircuit(c.Circuit)
		if m := c.N1*n + 1; m <= matrixFreeCutover || base != "" {
			return square(m)
		}
	case AnalysisHB:
		return square(c.NHarm*n + 1)
	case AnalysisQuasiperiodic:
		if m := c.N1*c.N2*n + c.N2; m <= matrixFreeCutover {
			return square(m)
		}
		return float64(c.N2) * square(c.N1*n)
	}
	return square(n + 1)
}

// Solve implements Engine.
func (e CircuitEngine) Solve(ctx context.Context, c *Canonical) (*Outcome, Stats, error) {
	var st Stats
	t0 := time.Now()
	sys, err := e.buildSystem(c)
	st.BuildNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, st, err
	}
	if m := c.denseEntries(sys.Dim()); m > MaxDenseEntries {
		return nil, st, solverr.New(solverr.KindBadInput, "serve.engine",
			"%s on %d states needs %.3g dense matrix entries, above the %d-entry cap", c.Analysis, sys.Dim(), m, MaxDenseEntries)
	}
	if c.needsOscVar() && sys.OscVar() < 0 {
		return nil, st, solverr.New(solverr.KindBadInput, "serve.engine",
			"analysis %q needs an oscillation variable ('.oscvar <node>' in the netlist)", c.Analysis)
	}
	out := &Outcome{Analysis: c.Analysis}
	switch c.Analysis {
	case AnalysisTransient:
		err = e.transient(ctx, sys, c, out)
	case AnalysisEnvelope:
		err = e.envelope(ctx, sys, c, out, &st)
	case AnalysisQuasiperiodic:
		err = e.quasiperiodic(ctx, sys, c, out, &st)
	case AnalysisShooting:
		err = e.shooting(ctx, sys, c, out)
	case AnalysisHB:
		err = e.harmonicBalance(ctx, sys, c, out)
	default:
		return nil, st, solverr.New(solverr.KindBadInput, "serve.engine", "unknown analysis %q", c.Analysis)
	}
	st.SolveNS = time.Since(t0).Nanoseconds() - st.BuildNS - st.ICNS
	if err != nil {
		if out.Transient == nil && out.Envelope == nil && out.Quasi == nil && out.Shooting == nil && out.HB == nil {
			return nil, st, err
		}
		out.Partial = true
		return out, st, err
	}
	return out, st, nil
}

// observedVar is the state the summary waveforms report: the oscillation
// variable when one is set, state 0 otherwise.
func observedVar(sys *circuit.System) int {
	if k := sys.OscVar(); k >= 0 {
		return k
	}
	return 0
}

func (CircuitEngine) transient(ctx context.Context, sys *circuit.System, c *Canonical, out *Outcome) error {
	x := make([]float64, sys.Dim())
	opt := transient.Options{Method: transient.Trap, H: c.H, Ctx: ctx}
	if base, _, _, _ := parseConverterCircuit(c.Circuit); base != "" {
		// Converter transients integrate the start-up from the zero state —
		// the catalog workload — with BDF2: the trapezoidal rule has no
		// damping on algebraic constraint rows, so from an inconsistent zero
		// start the source-node rows ring undamped for the whole run, while
		// BDF2 bootstraps with one L-stable BE step and kills the
		// inconsistency immediately. The relaxed Newton tolerance matches
		// the attainable residual floor of a zero-state switched start (see
		// transient.ConverterNewton).
		opt.Method = transient.BDF2
		opt.Newton = transient.ConverterNewton
	} else if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		return err
	}
	res, err := transient.Simulate(sys, x, 0, c.TStop, opt)
	if res == nil || len(res.T) == 0 {
		return err
	}
	k := observedVar(sys)
	idx := decimate(len(res.T))
	to := &TransientOut{
		Steps: len(res.T) - 1,
		TEnd:  res.T[len(res.T)-1],
		Var:   sys.StateName(k),
		T:     make([]float64, len(idx)),
		X:     make([]float64, len(idx)),
		Final: append([]float64(nil), res.X[len(res.X)-1]...),
	}
	for i, j := range idx {
		to.T[i] = res.T[j]
		to.X[i] = res.X[j][k]
	}
	out.Transient = to
	return err
}

// kickedStart is the start of the envelope preamble: the DC operating
// point, kicked off the equilibrium along the oscillation variable.
func kickedStart(sys *circuit.System) ([]float64, error) {
	xg := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, xg); err != nil {
		return nil, err
	}
	xg[sys.OscVar()] += 0.5
	return xg, nil
}

// initialCondition runs the standard envelope preamble: settle + autonomous
// shooting onto the limit cycle from the kicked start, sampled onto n1
// peak-aligned t1 points.
func (CircuitEngine) initialCondition(ctx context.Context, sys *circuit.System, n1 int, f0 float64) (xhat0 []float64, omega0 float64, err error) {
	xg, err := kickedStart(sys)
	if err != nil {
		return nil, 0, err
	}
	return core.InitialCondition(sys, xg, 1/f0, core.ICOptions{
		N1:       n1,
		Shooting: shooting.Options{Ctx: ctx},
	})
}

// rippleEnvelope is the converter envelope path: the forced (unwarped) MPDE
// with ω pinned to the PWM switching frequency, integrated from the zero
// state — the start-up ripple envelope. There is no initial-condition
// preamble (the PWM input pins the fast phase; there is no limit cycle to
// land on) and no matrix-free cutover: the t1-averaged harmonic
// preconditioner that makes GMRES effective on smooth VCO waveforms is a
// poor match for a switched circuit's seven-decade conductance swings, so
// converters always take the dense path (their bordered systems are small).
func (CircuitEngine) rippleEnvelope(ctx context.Context, sys *circuit.System, c *Canonical, fsw float64, out *Outcome) error {
	opt := mpde.RippleOptions(c.N1, fsw, 1)
	opt.H2 = c.TStop / float64(c.Steps)
	opt.Ctx = ctx
	res, err := mpde.RippleEnvelope(sys, make([]float64, c.N1*sys.Dim()), fsw, c.TStop, opt)
	if res == nil || len(res.T2) == 0 {
		return err
	}
	out.Envelope = envelopeOut(res)
	out.Supervision = supervision(res.Stats)
	return err
}

func (e CircuitEngine) envelope(ctx context.Context, sys *circuit.System, c *Canonical, out *Outcome, st *Stats) error {
	if base, _, fsw, _ := parseConverterCircuit(c.Circuit); base != "" {
		return e.rippleEnvelope(ctx, sys, c, fsw, out)
	}
	t0 := time.Now()
	xhat0, omega0, err := e.initialCondition(ctx, sys, c.N1, c.F0)
	st.ICNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	eopt := core.EnvelopeOptions{
		N1: c.N1, H2: c.TStop / float64(c.Steps), Trap: true, Ctx: ctx,
	}
	if c.N1*sys.Dim()+1 > matrixFreeCutover {
		eopt.Linear = core.LinearMatrixFree
	}
	res, err := core.Envelope(sys, xhat0, omega0, c.TStop, eopt)
	if res == nil || len(res.T2) == 0 {
		return err
	}
	out.Envelope = envelopeOut(res)
	out.Supervision = supervision(res.Stats)
	return err
}

// envelopeOut summarizes an envelope run: its local frequency and warping
// phase, decimated.
func envelopeOut(res *core.EnvelopeResult) *EnvelopeOut {
	idx := decimate(len(res.T2))
	eo := &EnvelopeOut{
		Steps:      len(res.T2) - 1,
		T2:         make([]float64, len(idx)),
		Omega:      make([]float64, len(idx)),
		Phi:        make([]float64, len(idx)),
		FinalOmega: res.Omega[len(res.Omega)-1],
	}
	for i, j := range idx {
		eo.T2[i] = res.T2[j]
		eo.Omega[i] = res.Omega[j]
		eo.Phi[i] = res.Phi[j]
	}
	return eo
}

func (e CircuitEngine) quasiperiodic(ctx context.Context, sys *circuit.System, c *Canonical, out *Outcome, st *Stats) error {
	t0 := time.Now()
	xhat0, omega0, err := e.initialCondition(ctx, sys, c.N1, c.F0)
	st.ICNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	// Seed the global quasiperiodic solve from one control period of
	// envelope following — the standard bootstrap (§4.1's natural initial
	// condition extended along t2).
	eopt := core.EnvelopeOptions{
		N1: c.N1, H2: c.Period / 100, Trap: true, Ctx: ctx,
	}
	if c.N1*sys.Dim()+1 > matrixFreeCutover {
		eopt.Linear = core.LinearMatrixFree
	}
	env, err := core.Envelope(sys, xhat0, omega0, c.Period, eopt)
	if err != nil {
		return err
	}
	guess, err := core.GuessFromEnvelope(env, c.Period, c.N1, c.N2)
	if err != nil {
		return err
	}
	qopt := core.QPOptions{N1: c.N1, N2: c.N2, Ctx: ctx}
	if c.N1*c.N2*sys.Dim()+c.N2 > matrixFreeCutover {
		qopt.Linear = core.LinearMatrixFree
	}
	res, err := core.Quasiperiodic(sys, c.Period, guess, qopt)
	if res == nil || len(res.Omega) == 0 {
		return err
	}
	out.Quasi = &QuasiOut{
		T2Period:  res.T2,
		OmegaMean: res.OmegaMean(),
		Omega:     append([]float64(nil), res.Omega...),
	}
	out.Supervision = supervision(res.Stats)
	return err
}

func (CircuitEngine) shooting(ctx context.Context, sys *circuit.System, c *Canonical, out *Outcome) error {
	var pss *shooting.PSS
	var err error
	if c.Period > 0 {
		x := make([]float64, sys.Dim())
		if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
			return err
		}
		pss, err = shooting.Forced(sys, x, c.Period, shooting.Options{Method: transient.Trap, Ctx: ctx})
	} else {
		// The envelope preamble's limit cycle, from the same kicked start.
		var xg []float64
		if xg, err = kickedStart(sys); err != nil {
			return err
		}
		pss, err = core.LimitCycle(sys, xg, 1/c.F0, core.ICOptions{Shooting: shooting.Options{Ctx: ctx}})
	}
	if err != nil {
		return err
	}
	out.Shooting = &ShootingOut{
		Period: pss.T,
		Freq:   1 / pss.T,
		X0:     append([]float64(nil), pss.X0...),
	}
	return nil
}

func (e CircuitEngine) harmonicBalance(ctx context.Context, sys *circuit.System, c *Canonical, out *Outcome) error {
	opt := hb.Options{N: c.NHarm, Ctx: ctx}
	var sol *hb.Solution
	var err error
	if c.Period > 0 {
		sol, err = hb.Forced(sys, c.Period, nil, opt)
	} else {
		// Autonomous HB needs a non-trivial seed or Newton lands on the
		// equilibrium: seed from the envelope preamble's orbit at N1 = nharm,
		// whose peak at t1 = 0 already meets HB's derivative-zero phase
		// condition.
		xhat0, omega0, ierr := e.initialCondition(ctx, sys, c.NHarm, c.F0)
		if ierr != nil {
			return ierr
		}
		n := sys.Dim()
		guess := make([][]float64, c.NHarm)
		for j := range guess {
			guess[j] = xhat0[j*n : (j+1)*n]
		}
		sol, err = hb.Autonomous(sys, 1/omega0, guess, opt)
	}
	if err != nil {
		return err
	}
	k := observedVar(sys)
	harm := sol.Harmonics(k)
	nh := len(harm)/2 + 1
	if nh > 8 {
		nh = 8
	}
	mags := make([]float64, nh)
	for h := 0; h < nh; h++ {
		mags[h] = cmplx.Abs(harm[h])
	}
	out.HB = &HBOut{Period: sol.T, Freq: 1 / sol.T, Harmonics: mags}
	return nil
}

// decimate returns ≤ maxSeriesPoints indices into a series of length n,
// always including the first and last points, with a fixed stride in
// between (deterministic for a given n).
func decimate(n int) []int {
	if n <= maxSeriesPoints {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	stride := int(math.Ceil(float64(n-1) / float64(maxSeriesPoints-1)))
	idx := make([]int, 0, maxSeriesPoints)
	for j := 0; j < n-1; j += stride {
		idx = append(idx, j)
	}
	return append(idx, n-1)
}

// supervision flattens a WaMPDE solve's supervision counters for the
// response body. Only non-zero counters are emitted (the common
// all-converged case reports an empty map, elided by omitempty), so a
// quasiperiodic solve, which has no t2 steps, never reports the step keys.
// The keys are part of the content-addressed body: renaming one splits the
// persisted cache.
func supervision(s core.Stats) map[string]int {
	return prune(map[string]int{
		"newton_iter_total":        s.NewtonIterTotal,
		"linear_solves":            s.LinearSolves,
		"rejected_steps":           s.Rejected,
		"jacobian_evals":           s.JacobianEvals,
		"jacobian_reuses":          s.JacobianReuses,
		"gmres_stagnations":        s.GMRESStagnations,
		"gmres_breakdowns":         s.GMRESBreakdowns,
		"linear_gmres_rescues":     s.LinearGMRESRescues,
		"linear_lu_rescues":        s.LinearLURescues,
		"linear_sparse_lu_rescues": s.LinearSparseLURescues,
		"full_newton_rescues":      s.FullNewtonRescues,
		"damped_newton_rescues":    s.DampedNewtonRescues,
		"continuation_rescues":     s.ContinuationRescues,
		"step_halvings":            s.StepHalvings,
	})
}

func prune(m map[string]int) map[string]int {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}
