package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/solverr"
)

// Named paper circuits a request may reference instead of embedding a
// netlist.
const (
	// CircuitPaperVCO is the §5 MEMS-varactor VCO, vacuum cavity
	// (Figures 7–9).
	CircuitPaperVCO = "paper-vco"
	// CircuitPaperVCOAir is the air-damped configuration (Figures 10–12).
	CircuitPaperVCOAir = "paper-vco-air"
	// CircuitRingVCO is the generated N-stage single-ended ring VCO; requests
	// spell it "ring-vco?stages=N" (N odd, netlist.RingStagesMin..Max).
	CircuitRingVCO = "ring-vco"
	// CircuitPseudoDiffVCO is the generated pseudodifferential ring,
	// "pseudodiff-vco?stages=N" (N even, netlist.PDStagesMin..Max).
	CircuitPseudoDiffVCO = "pseudodiff-vco"
	// CircuitBuckConverter is the generated PWM buck converter, spelled
	// "buck-converter?duty=D&fsw=F" (netlist.ConverterDutyMin..Max,
	// ConverterFswMin..Max). Converters run the forced analyses only:
	// transient, and the ripple envelope with ω pinned to fsw.
	CircuitBuckConverter = "buck-converter"
	// CircuitBoostConverter is the generated PWM boost converter,
	// "boost-converter?duty=D&fsw=F".
	CircuitBoostConverter = "boost-converter"
)

// Analysis kinds.
const (
	AnalysisEnvelope      = "envelope"
	AnalysisQuasiperiodic = "quasiperiodic"
	AnalysisTransient     = "transient"
	AnalysisShooting      = "shooting"
	AnalysisHB            = "hb"
)

// Admission caps: a request outside these bounds is rejected at decode
// time, before it can occupy a scheduler slot. They bound the work and the
// response size one job may cost, which is what lets the queue and the
// cache budget mean anything.
const (
	// MaxNetlistBytes bounds an embedded netlist source.
	MaxNetlistBytes = 64 << 10
	// MaxN1 bounds the warped-axis collocation grid.
	MaxN1 = 129
	// MaxN2 bounds the quasiperiodic slow-axis grid.
	MaxN2 = 128
	// MaxDenseEntries bounds the float64 entries one solve holds in dense
	// matrices (1 GiB), as the engine counts them from the canonical request
	// and the built system's dimension (see denseEntries).
	MaxDenseEntries = 1 << 27
	// MaxSteps bounds envelope t2 steps.
	MaxSteps = 20000
	// MaxTransientSteps bounds tstop/h for transient analyses.
	MaxTransientSteps = 5e6
	// MaxHarmonics bounds harmonic-balance samples per period.
	MaxHarmonics = 257
	// MaxVCtl bounds the named-VCO control-voltage override.
	MaxVCtl = 20.0
)

// RequestOptions are the per-analysis knobs of the wire request. Zero
// values mean "engine default"; Canonicalize spells the defaults out so
// differently-elided requests canonicalize identically.
type RequestOptions struct {
	N1     int     `json:"n1,omitempty"`     // warped-axis points (envelope/quasiperiodic)
	N2     int     `json:"n2,omitempty"`     // slow-axis points (quasiperiodic)
	Steps  int     `json:"steps,omitempty"`  // envelope t2 steps
	TStop  float64 `json:"tstop,omitempty"`  // end time (envelope/transient), seconds
	H      float64 `json:"h,omitempty"`      // transient step, seconds
	Period float64 `json:"period,omitempty"` // forcing period (shooting/hb, quasiperiodic slow period)
	F0     float64 `json:"f0,omitempty"`     // oscillation frequency guess, Hz
	NHarm  int     `json:"nharm,omitempty"`  // hb samples per period
}

// Request is the wire form of a simulation job: a circuit (named paper
// circuit or embedded netlist), an analysis kind and options. DeadlineMS is
// the per-job wall-clock budget; it deliberately does not participate in
// the canonical encoding — two requests for the same solve under different
// deadlines are the same solve.
type Request struct {
	Circuit  string         `json:"circuit,omitempty"` // named circuit; mutually exclusive with Netlist
	Netlist  string         `json:"netlist,omitempty"` // inline netlist source
	VCtlDC   float64        `json:"vctl_dc,omitempty"` // named-VCO DC control override (sweep knob), volts
	Analysis string         `json:"analysis"`
	Options  RequestOptions `json:"options"`
	// DeadlineMS, when positive, is this job's wall-clock budget in
	// milliseconds (queue wait + solve). Expiry cancels the solve through
	// the context path and returns the partial result with status 408.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// Canonical is the canonicalized request: validated, defaults applied,
// inapplicable fields zeroed. Its JSON encoding (fixed field order, Go's
// shortest-float number formatting) is the deterministic canonical byte
// string whose SHA-256 content-addresses the result cache.
type Canonical struct {
	Circuit  string  `json:"circuit,omitempty"`
	Netlist  string  `json:"netlist,omitempty"`
	VCtlDC   float64 `json:"vctl_dc,omitempty"`
	Analysis string  `json:"analysis"`
	N1       int     `json:"n1,omitempty"`
	N2       int     `json:"n2,omitempty"`
	Steps    int     `json:"steps,omitempty"`
	TStop    float64 `json:"tstop,omitempty"`
	H        float64 `json:"h,omitempty"`
	Period   float64 `json:"period,omitempty"`
	F0       float64 `json:"f0,omitempty"`
	NHarm    int     `json:"nharm,omitempty"`
}

// Encode returns the canonical byte encoding.
func (c *Canonical) Encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Canonical holds only strings, ints and validated finite floats;
		// Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: canonical encode: %v", err))
	}
	return b
}

// Hash returns the hex SHA-256 of the canonical encoding — the request's
// content address in the result cache and single-flight group.
func (c *Canonical) Hash() string {
	sum := sha256.Sum256(c.Encode())
	return hex.EncodeToString(sum[:])
}

// badInput builds the uniform decode/validation failure.
func badInput(format string, args ...any) error {
	return solverr.New(solverr.KindBadInput, "serve.request", format, args...)
}

// parseGeneratorCircuit recognizes the generated named circuits
// ("ring-vco?stages=N", "pseudodiff-vco?stages=N"). base is "" when s does
// not name a generator circuit at all; a recognized base with a malformed or
// missing stages parameter is an error. Stage-count bounds and parity are
// left to the generator itself.
func parseGeneratorCircuit(s string) (base string, stages int, err error) {
	for _, b := range []string{CircuitRingVCO, CircuitPseudoDiffVCO} {
		if s == b || strings.HasPrefix(s, b+"?") {
			base = b
			break
		}
	}
	if base == "" {
		return "", 0, nil
	}
	rest := strings.TrimPrefix(s, base)
	val, ok := strings.CutPrefix(rest, "?stages=")
	if !ok {
		return "", 0, badInput("circuit %s takes exactly one parameter: %s?stages=N", base, base)
	}
	stages, aerr := strconv.Atoi(val)
	if aerr != nil {
		return "", 0, badInput("circuit %s: stages %q is not an integer", base, val)
	}
	return base, stages, nil
}

// generatorFor maps a generator circuit base name to its netlist generator.
func generatorFor(base string) func(int, float64) (string, error) {
	if base == CircuitPseudoDiffVCO {
		return netlist.PseudoDiffVCO
	}
	return netlist.RingVCO
}

// parseConverterCircuit recognizes the generated converter circuits
// ("buck-converter?duty=D&fsw=F", "boost-converter?duty=D&fsw=F"). base is
// "" when s does not name a converter at all; a recognized base with
// malformed or missing parameters is an error. Parameter bounds are left to
// the generator itself.
func parseConverterCircuit(s string) (base string, duty, fsw float64, err error) {
	for _, b := range []string{CircuitBuckConverter, CircuitBoostConverter} {
		if s == b || strings.HasPrefix(s, b+"?") {
			base = b
			break
		}
	}
	if base == "" {
		return "", 0, 0, nil
	}
	shapeErr := func() error {
		return badInput("circuit %s takes exactly two parameters: %s?duty=D&fsw=F", base, base)
	}
	rest, ok := strings.CutPrefix(strings.TrimPrefix(s, base), "?duty=")
	if !ok {
		return "", 0, 0, shapeErr()
	}
	dstr, fstr, ok := strings.Cut(rest, "&fsw=")
	if !ok {
		return "", 0, 0, shapeErr()
	}
	if duty, err = strconv.ParseFloat(dstr, 64); err != nil {
		return "", 0, 0, badInput("circuit %s: duty %q is not a number", base, dstr)
	}
	if fsw, err = strconv.ParseFloat(fstr, 64); err != nil {
		return "", 0, 0, badInput("circuit %s: fsw %q is not a number", base, fstr)
	}
	return base, duty, fsw, nil
}

// parseConverterSweepBase recognizes a duty-sweep base circuit: a converter
// name carrying only the fsw parameter ("buck-converter?fsw=1e5"), the duty
// being supplied per sweep point.
func parseConverterSweepBase(s string) (base string, fsw float64, err error) {
	for _, b := range []string{CircuitBuckConverter, CircuitBoostConverter} {
		if s == b || strings.HasPrefix(s, b+"?") {
			base = b
			break
		}
	}
	if base == "" {
		return "", 0, badInput("duty sweep needs a converter base circuit, %s?fsw=F or %s?fsw=F",
			CircuitBuckConverter, CircuitBoostConverter)
	}
	val, ok := strings.CutPrefix(strings.TrimPrefix(s, base), "?fsw=")
	if !ok {
		return "", 0, badInput("duty sweep base circuit takes exactly one parameter, %s?fsw=F (the duty comes from the sweep)", base)
	}
	fsw, aerr := strconv.ParseFloat(val, 64)
	if aerr != nil {
		return "", 0, badInput("circuit %s: fsw %q is not a number", base, val)
	}
	return base, fsw, nil
}

// converterGeneratorFor maps a converter base name to its netlist generator.
func converterGeneratorFor(base string) func(duty, fsw float64) (string, error) {
	if base == CircuitBoostConverter {
		return netlist.BoostConverter
	}
	return netlist.BuckConverter
}

// converterN1 is the catalog t1 resolution for a converter's ripple
// envelope — per-circuit, set by measurement against brute-force transients
// (see netlist.BuckN1/BoostN1 for the record).
func converterN1(base string) int {
	if base == CircuitBoostConverter {
		return netlist.BoostN1
	}
	return netlist.BuckN1
}

// defaultConverterSteps is the converter envelope's default t2 step count:
// one step per switching period (the mpde.RippleOptions preset), clamped
// into the admission bounds.
func defaultConverterSteps(tstop, fsw float64) int {
	p := tstop * fsw
	if p >= MaxSteps {
		return MaxSteps
	}
	if p < 1 {
		return 1
	}
	return int(math.Round(p))
}

// DecodeRequest parses one JSON request from r. It is strict — unknown
// fields and trailing garbage are rejected — so a typoed option name
// cannot silently canonicalize to a different solve than the caller meant.
func DecodeRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, badInput("invalid request JSON: %v", err)
	}
	// Reject trailing non-whitespace so "{}garbage" is not accepted.
	if dec.More() {
		return nil, badInput("trailing data after request JSON")
	}
	return &req, nil
}

// finitePos reports v > 0 and finite.
func finitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// Canonicalize validates the request and returns its canonical form. All
// validation happens here, before the request can touch the scheduler: a
// request that canonicalizes will build and run (netlist sources are parsed
// now), and one that will not is rejected as bad input.
func (r *Request) Canonicalize() (*Canonical, error) {
	c := &Canonical{Analysis: r.Analysis}

	// Circuit source.
	hasNamed := r.Circuit != ""
	hasNetlist := r.Netlist != ""
	switch {
	case hasNamed == hasNetlist:
		return nil, badInput("exactly one of circuit and netlist is required")
	case hasNamed:
		base, stages, err := parseGeneratorCircuit(r.Circuit)
		if err != nil {
			return nil, err
		}
		cbase, duty, fsw, cerr := parseConverterCircuit(r.Circuit)
		if cerr != nil {
			return nil, cerr
		}
		switch {
		case base != "":
			// Validate stages by generating (the generator owns the bounds
			// and parity rules), and normalize the spelling so e.g.
			// "stages=015" canonicalizes identically to "stages=15".
			if _, gerr := generatorFor(base)(stages, 0); gerr != nil {
				return nil, badInput("%v", gerr)
			}
			c.Circuit = fmt.Sprintf("%s?stages=%d", base, stages)
		case cbase != "":
			// Validate duty/fsw by generating (the generator owns the bounds)
			// and normalize the spelling so "duty=0.50&fsw=100e3"
			// canonicalizes identically to "duty=0.5&fsw=100000".
			if _, gerr := converterGeneratorFor(cbase)(duty, fsw); gerr != nil {
				return nil, badInput("%v", gerr)
			}
			c.Circuit = fmt.Sprintf("%s?duty=%g&fsw=%g", cbase, duty, fsw)
		case r.Circuit == CircuitPaperVCO || r.Circuit == CircuitPaperVCOAir:
			c.Circuit = r.Circuit
		default:
			return nil, badInput("unknown circuit %q (want %s, %s, %s?stages=N, %s?stages=N, %s?duty=D&fsw=F or %s?duty=D&fsw=F)",
				r.Circuit, CircuitPaperVCO, CircuitPaperVCOAir, CircuitRingVCO, CircuitPseudoDiffVCO,
				CircuitBuckConverter, CircuitBoostConverter)
		}
		if r.VCtlDC != 0 {
			if cbase != "" {
				return nil, badInput("vctl_dc does not apply to converter circuits (the duty ratio is the sweep knob)")
			}
			if !finitePos(r.VCtlDC) || r.VCtlDC > MaxVCtl {
				return nil, badInput("vctl_dc must be in (0, %g], got %v", MaxVCtl, r.VCtlDC)
			}
			c.VCtlDC = r.VCtlDC
		}
	default:
		if len(r.Netlist) > MaxNetlistBytes {
			return nil, badInput("netlist too large: %d bytes (cap %d)", len(r.Netlist), MaxNetlistBytes)
		}
		if r.VCtlDC != 0 {
			return nil, badInput("vctl_dc applies only to named circuits")
		}
		ckt, err := netlist.Parse(r.Netlist)
		if err != nil {
			return nil, badInput("netlist: %v", err)
		}
		if _, err := ckt.Build(); err != nil {
			return nil, badInput("netlist build: %v", err)
		}
		// Canonicalize line endings and trailing whitespace only; the source
		// text itself is the canonical circuit identity (two syntactically
		// different netlists of the same circuit are distinct solves, which
		// is the conservative direction for a result cache).
		c.Netlist = strings.ReplaceAll(r.Netlist, "\r\n", "\n")
	}

	// Frequency-guess default: the paper VCO's nominal, or — for generator
	// circuits — the ring's designed oscillation frequency at the effective
	// control bias.
	f0def := circuit.VCONominalFreq
	if base, stages, _ := parseGeneratorCircuit(c.Circuit); base != "" {
		vc := c.VCtlDC
		if vc == 0 {
			vc = netlist.VctlDefault
		}
		f0def = netlist.RingVCONominalFreq(stages, vc)
	}

	// Converter circuits run the forced analyses only: the ripple envelope
	// (ω pinned to the PWM frequency from the circuit name — no phase
	// condition, no frequency unknown) and the brute-force transient. The
	// autonomous analyses need an oscillation variable and a free frequency,
	// which a driven converter does not have.
	convBase, _, convFsw, _ := parseConverterCircuit(c.Circuit)
	if convBase != "" && r.Analysis != AnalysisEnvelope && r.Analysis != AnalysisTransient {
		return nil, badInput("analysis %q does not apply to converter circuits (want %s or %s)",
			r.Analysis, AnalysisEnvelope, AnalysisTransient)
	}

	o := r.Options
	switch r.Analysis {
	case AnalysisEnvelope:
		if !finitePos(o.TStop) {
			return nil, badInput("envelope needs options.tstop > 0")
		}
		c.TStop = o.TStop
		if convBase != "" {
			// Converter ripple envelope: the catalog per-circuit t1
			// resolution and one t2 step per switching period by default,
			// and no frequency guess — the fast scale is pinned to fsw.
			c.N1 = defaultInt(o.N1, converterN1(convBase))
			c.Steps = defaultInt(o.Steps, defaultConverterSteps(c.TStop, convFsw))
			if o.F0 != 0 {
				return nil, badInput("options.f0 does not apply to converter circuits (the ripple envelope is pinned to fsw)")
			}
		} else {
			c.N1 = defaultInt(o.N1, 25)
			c.Steps = defaultInt(o.Steps, 400)
			c.F0 = defaultFloat(o.F0, f0def)
			if !finitePos(c.F0) {
				return nil, badInput("options.f0 must be positive and finite")
			}
		}
		if c.N1 > MaxN1 || c.N1 < 5 {
			return nil, badInput("options.n1 must be in [5, %d], got %d", MaxN1, c.N1)
		}
		if c.Steps > MaxSteps || c.Steps < 1 {
			return nil, badInput("options.steps must be in [1, %d], got %d", MaxSteps, c.Steps)
		}
	case AnalysisQuasiperiodic:
		if !finitePos(o.Period) {
			return nil, badInput("quasiperiodic needs options.period > 0 (the slow-time period)")
		}
		c.Period = o.Period
		c.N1 = defaultInt(o.N1, 17)
		c.N2 = defaultInt(o.N2, 15)
		c.F0 = defaultFloat(o.F0, f0def)
		if c.N1 > MaxN1 || c.N1 < 5 {
			return nil, badInput("options.n1 must be in [5, %d], got %d", MaxN1, c.N1)
		}
		if c.N2 > MaxN2 || c.N2 < 3 {
			return nil, badInput("options.n2 must be in [3, %d], got %d", MaxN2, c.N2)
		}
		if !finitePos(c.F0) {
			return nil, badInput("options.f0 must be positive and finite")
		}
	case AnalysisTransient:
		if !finitePos(o.TStop) || !finitePos(o.H) {
			return nil, badInput("transient needs options.tstop > 0 and options.h > 0")
		}
		if o.TStop/o.H > MaxTransientSteps {
			return nil, badInput("transient span tstop/h = %.3g exceeds the %g-step cap", o.TStop/o.H, float64(MaxTransientSteps))
		}
		c.TStop = o.TStop
		c.H = o.H
	case AnalysisShooting:
		if o.Period != 0 && !finitePos(o.Period) {
			return nil, badInput("options.period must be positive and finite")
		}
		if o.Period == 0 {
			// Autonomous shooting: needs a frequency guess and an
			// oscillation variable (checked at build time for netlists,
			// always present on the named VCOs).
			c.F0 = defaultFloat(o.F0, f0def)
			if !finitePos(c.F0) {
				return nil, badInput("options.f0 must be positive and finite")
			}
		} else {
			c.Period = o.Period
		}
	case AnalysisHB:
		c.NHarm = defaultInt(o.NHarm, 33)
		if c.NHarm > MaxHarmonics || c.NHarm < 3 {
			return nil, badInput("options.nharm must be in [3, %d], got %d", MaxHarmonics, c.NHarm)
		}
		if o.Period != 0 && !finitePos(o.Period) {
			return nil, badInput("options.period must be positive and finite")
		}
		if o.Period == 0 {
			c.F0 = defaultFloat(o.F0, f0def)
			if !finitePos(c.F0) {
				return nil, badInput("options.f0 must be positive and finite")
			}
		} else {
			c.Period = o.Period
		}
	case "":
		return nil, badInput("analysis is required")
	default:
		return nil, badInput("unknown analysis %q", r.Analysis)
	}

	// Cross-check: unused options must be zero, so a request cannot carry
	// stray knobs that silently don't apply (and would fracture the cache
	// into spuriously distinct keys if they were encoded).
	if err := rejectStrayOptions(r.Analysis, o); err != nil {
		return nil, err
	}
	return c, nil
}

// rejectStrayOptions fails when an option that does not apply to the
// analysis is set.
func rejectStrayOptions(analysis string, o RequestOptions) error {
	type knob struct {
		name string
		set  bool
	}
	knobs := []knob{
		{"n1", o.N1 != 0}, {"n2", o.N2 != 0}, {"steps", o.Steps != 0},
		{"tstop", o.TStop != 0}, {"h", o.H != 0}, {"period", o.Period != 0},
		{"f0", o.F0 != 0}, {"nharm", o.NHarm != 0},
	}
	allowed := map[string]map[string]bool{
		AnalysisEnvelope:      {"n1": true, "steps": true, "tstop": true, "f0": true},
		AnalysisQuasiperiodic: {"n1": true, "n2": true, "period": true, "f0": true},
		AnalysisTransient:     {"tstop": true, "h": true},
		AnalysisShooting:      {"period": true, "f0": true},
		AnalysisHB:            {"period": true, "f0": true, "nharm": true},
	}[analysis]
	for _, k := range knobs {
		if k.set && !allowed[k.name] {
			return badInput("options.%s does not apply to analysis %q", k.name, analysis)
		}
	}
	return nil
}

func defaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func defaultFloat(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// ErrTooLarge is reported when the request body exceeds the server's size
// cap (http.MaxBytesReader).
var ErrTooLarge = errors.New("serve: request body too large")
