package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/solverr"
	"repro/internal/sweep"
)

// Sweep admission caps, in the same spirit as the single-request caps: they
// bound what one sweep job may cost before it touches the scheduler.
const (
	// MaxSweepPoints bounds the number of points of one sweep job.
	MaxSweepPoints = 1024
	// MaxSweepCorners bounds a corner-set sweep (each corner is a distinct
	// circuit build, the expensive kind of point).
	MaxSweepCorners = 8
	// MaxSweepLanes bounds the number of concurrent warm-start chains one
	// sweep may occupy in the worker pool.
	MaxSweepLanes = 8
)

// Sweep parameter kinds.
const (
	// SweepParamVCtl sweeps the named-VCO DC control voltage: a uniform
	// grid (from/to/points) or an explicit value list.
	SweepParamVCtl = "vctl_dc"
	// SweepParamCircuit sweeps a corner set of named circuits.
	SweepParamCircuit = "circuit"
	// SweepParamDuty sweeps a converter circuit's PWM duty ratio: the base
	// request names the converter without a duty ("buck-converter?fsw=1e5")
	// and each point becomes the full canonical circuit name. Grid sweeps
	// run in continuation order, so neighboring duty points keep warm-start
	// locality in offline drivers.
	SweepParamDuty = "duty"
)

// SweepSpec is the swept-parameter clause of a sweep request: which
// parameter varies, and either a uniform grid (From/To/Points), an explicit
// Values list, or a Corners name set, depending on the parameter kind.
type SweepSpec struct {
	Param   string    `json:"param"`
	From    float64   `json:"from,omitempty"`
	To      float64   `json:"to,omitempty"`
	Points  int       `json:"points,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	Corners []string  `json:"corners,omitempty"`
}

// SweepRequest is the wire form of a sweep job: a base Request (everything a
// single solve takes, minus the swept field) plus the sweep clause and
// execution knobs. Lanes and Have do not participate in the sweep's
// identity — they say how to run it, not what it is.
type SweepRequest struct {
	Request
	Sweep SweepSpec `json:"sweep"`
	// Lanes is the number of concurrent continuation chains (default 2,
	// capped at MaxSweepLanes and the point count).
	Lanes int `json:"lanes,omitempty"`
	// Have is the number of point records the client already received (the
	// stream line count, excluding the header): those points are neither
	// re-solved nor re-emitted. Resending a cut sweep with Have resumes it;
	// points solved before the cut come back from the cache tiers.
	Have int `json:"have,omitempty"`
}

// SweepJob is the canonicalized sweep: the continuation-ordered plan with
// each point's fully canonicalized single request and content hash, so a
// point's solve, cache entry and response body are exactly those of the
// equivalent single request.
type SweepJob struct {
	Param      string
	Plan       *sweep.Plan
	Points     []*Canonical // indexed by Seq
	Hashes     []string     // indexed by Seq; single-solve content addresses
	Lanes      int
	Have       int
	DeadlineMS int

	hash string
}

// Hash returns the sweep's own content address: the SHA-256 over the param
// kind and the per-point canonical hashes in plan order. Execution knobs
// (lanes, have, deadline) are excluded — a resumed sweep must hash
// identically to the run it resumes.
func (j *SweepJob) Hash() string { return j.hash }

// DecodeSweepRequest parses one JSON sweep request, as strict as
// DecodeRequest: unknown fields and trailing garbage are rejected.
func DecodeSweepRequest(r io.Reader) (*SweepRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badInput("invalid sweep request JSON: %v", err)
	}
	if dec.More() {
		return nil, badInput("trailing data after sweep request JSON")
	}
	return &req, nil
}

// Canonicalize validates the sweep request and materializes every point as a
// canonical single request. All validation happens here, before the job can
// touch the scheduler: each point passes the exact single-request
// Canonicalize, so a sweep can never enqueue a point that a single request
// would have rejected.
func (r *SweepRequest) Canonicalize() (*SweepJob, error) {
	job := &SweepJob{
		Param:      r.Sweep.Param,
		DeadlineMS: r.DeadlineMS,
	}

	var err error
	var dutyBase string
	var dutyFsw float64
	switch r.Sweep.Param {
	case SweepParamVCtl:
		if r.VCtlDC != 0 {
			return nil, badInput("base request must not set vctl_dc when sweeping it")
		}
		job.Plan, err = scalarPlan(r.Sweep)
	case SweepParamDuty:
		// The swept coordinate lives inside the circuit name: the base names
		// the converter with only its fsw, and each point substitutes the
		// full canonical "base?duty=D&fsw=F" spelling — so a point's solve,
		// cache entry and body are exactly those of the single request.
		if r.Netlist != "" {
			return nil, badInput("duty sweep takes a converter base circuit, not a netlist")
		}
		dutyBase, dutyFsw, err = parseConverterSweepBase(r.Circuit)
		if err != nil {
			return nil, err
		}
		job.Plan, err = scalarPlan(r.Sweep)
	case SweepParamCircuit:
		if r.Circuit != "" || r.Netlist != "" {
			return nil, badInput("base request must not name a circuit when sweeping corners")
		}
		if r.Sweep.Points != 0 || r.Sweep.From != 0 || r.Sweep.To != 0 || len(r.Sweep.Values) > 0 {
			return nil, badInput("corner sweep takes only sweep.corners")
		}
		if len(r.Sweep.Corners) > MaxSweepCorners {
			return nil, badInput("sweep.corners has %d entries (cap %d)", len(r.Sweep.Corners), MaxSweepCorners)
		}
		job.Plan, err = sweep.Corners(r.Sweep.Corners)
	case "":
		return nil, badInput("sweep.param is required")
	default:
		return nil, badInput("unknown sweep.param %q (want %s, %s or %s)",
			r.Sweep.Param, SweepParamVCtl, SweepParamDuty, SweepParamCircuit)
	}
	if err != nil {
		var se *solverr.Error
		if errors.As(err, &se) {
			return nil, err // already a classified admission failure
		}
		return nil, badInput("%v", err)
	}

	n := job.Plan.N()
	job.Points = make([]*Canonical, n)
	job.Hashes = make([]string, n)
	for _, pt := range job.Plan.Points {
		// Each point is the base request with the swept field substituted,
		// run through the exact single-request validation.
		pr := r.Request
		switch r.Sweep.Param {
		case SweepParamVCtl:
			pr.VCtlDC = pt.Value
		case SweepParamDuty:
			pr.Circuit = fmt.Sprintf("%s?duty=%g&fsw=%g", dutyBase, pt.Value, dutyFsw)
		case SweepParamCircuit:
			pr.Circuit = pt.Label
		}
		c, cerr := pr.Canonicalize()
		if cerr != nil {
			return nil, badInput("sweep point %d (%s): %v", pt.Index, pointName(r.Sweep.Param, pt), cerr)
		}
		job.Points[pt.Seq] = c
		job.Hashes[pt.Seq] = c.Hash()
	}

	job.Lanes = r.Lanes
	if job.Lanes == 0 {
		job.Lanes = 2
	}
	if job.Lanes < 1 || job.Lanes > MaxSweepLanes {
		return nil, badInput("lanes must be in [1, %d], got %d", MaxSweepLanes, r.Lanes)
	}
	if job.Lanes > n {
		job.Lanes = n
	}
	if r.Have < 0 || r.Have > n {
		return nil, badInput("have must be in [0, %d], got %d", n, r.Have)
	}
	job.Have = r.Have
	if r.DeadlineMS < 0 {
		return nil, badInput("deadline_ms must be non-negative")
	}

	// The sweep's content address: param kind + per-point hashes in plan
	// order. Canonical per-point hashes already cover the whole base request.
	id := struct {
		Param  string   `json:"param"`
		Points []string `json:"points"`
	}{Param: job.Param, Points: job.Hashes}
	sum := sha256.Sum256(mustJSON(id))
	job.hash = hex.EncodeToString(sum[:])
	return job, nil
}

// scalarPlan builds the continuation plan of a scalar-valued sweep clause:
// exactly one of a uniform grid (from/to/points) or an explicit value list,
// never corners. Shared by the vctl_dc and duty params.
func scalarPlan(s SweepSpec) (*sweep.Plan, error) {
	hasGrid := s.Points != 0 || s.From != 0 || s.To != 0
	hasValues := len(s.Values) > 0
	if len(s.Corners) > 0 {
		return nil, badInput("sweep.corners does not apply to param %q", s.Param)
	}
	switch {
	case hasGrid == hasValues:
		return nil, badInput("%s sweep needs exactly one of from/to/points and values", s.Param)
	case hasGrid:
		if s.Points < 2 || s.Points > MaxSweepPoints {
			return nil, badInput("sweep.points must be in [2, %d], got %d", MaxSweepPoints, s.Points)
		}
		return sweep.Grid(s.From, s.To, s.Points)
	default:
		if len(s.Values) > MaxSweepPoints {
			return nil, badInput("sweep.values has %d entries (cap %d)", len(s.Values), MaxSweepPoints)
		}
		return sweep.Values(s.Values)
	}
}

// pointName renders a point's swept coordinate for diagnostics.
func pointName(param string, pt sweep.Point) string {
	if param == SweepParamCircuit {
		return pt.Label
	}
	b, _ := json.Marshal(pt.Value)
	return string(b)
}
