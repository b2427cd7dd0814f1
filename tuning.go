package wampde

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sweep"
)

// TuningSweepConfig configures an offline warm-started tuning-curve sweep:
// for each DC control voltage, the free-running periodic steady state of the
// §5 VCO and its oscillation frequency. Points run in continuation order
// (ascending control voltage) and each point's shooting starts from its
// neighbor's orbit via the core.WarmStart carrier, skipping the settling
// transient — the offline counterpart of the serve tier's /v1/sweep, where
// bit-exactness against single solves matters more than reuse (DESIGN.md
// "Sweep jobs").
type TuningSweepConfig struct {
	// Air selects the air-damped configuration (Figures 10–12); false is the
	// vacuum circuit of Figures 7–9.
	Air bool

	// Values lists explicit control voltages, in any order (the planner
	// re-orders them for continuation). Mutually exclusive with the grid.
	Values []float64
	// From/To/Points describe a uniform control-voltage grid.
	From, To float64
	Points   int

	// N1 is the warped-axis sample count of each orbit (default 25).
	N1 int
	// SettleCycles bounds the cold-start settling transient (default 20);
	// warm-started points skip it entirely.
	SettleCycles int
	// Lanes is the number of concurrent continuation chains (default 1).
	// Each lane owns a contiguous voltage segment and threads its own
	// carrier, so determinism does not depend on lane count.
	Lanes int
	// Cold disables warm continuation: every point runs the full settle +
	// shoot preamble. The baseline TuningSweep's results are compared
	// against.
	Cold bool
	// Ctx, when non-nil, makes the sweep cancelable between and inside
	// points.
	Ctx context.Context
}

// TuningPoint is one solved point of the tuning curve.
type TuningPoint struct {
	VCtl  float64 // DC control voltage
	Index int     // position in the caller's Values list (grids: ascending)
	Freq  float64 // free-running oscillation frequency, Hz
	T     float64 // oscillation period, s
	U     float64 // static plate displacement at this control
	// Warm records how the point started: "warm" (orbit carried from the
	// neighbor), "cold" (full settle + shoot), or "fallback" (carried orbit
	// failed supervision; the cold path rescued the point).
	Warm   string
	WallNS int64
}

// TuningSweepResult is a completed tuning sweep in continuation order.
type TuningSweepResult struct {
	Points    []TuningPoint
	WarmUses  int // points that adopted a carried orbit
	Fallbacks int // carried orbits that failed supervision
	WallNS    int64
}

// TuningSweep computes the VCO's tuning curve f(Vctl) by warm-started
// continuation. Any point's hard failure aborts the sweep (unlike the
// streaming service there is no partial consumer to keep feeding).
func TuningSweep(cfg TuningSweepConfig) (*TuningSweepResult, error) {
	plan, err := tuningPlan(cfg)
	if err != nil {
		return nil, err
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n1 := cfg.N1
	if n1 <= 0 {
		n1 = 25
	}

	n := plan.N()
	pts := make([]TuningPoint, n)
	res := &TuningSweepResult{Points: make([]TuningPoint, 0, n)}

	solve := func(ctx context.Context, p sweep.Point, carry any) ([]byte, sweep.Meta, any, error) {
		t0 := time.Now()
		params := circuit.DefaultVCOParams()
		if cfg.Air {
			params = circuit.AirVCOParams()
		}
		// Freeze the control at the swept DC value: each point is an
		// unforced oscillator whose PSS is the tuning-curve sample.
		params.VCtl = circuit.DC(p.Value)
		vco, err := circuit.NewVCO(params)
		if err != nil {
			return nil, sweep.Meta{}, nil, err
		}

		opt := core.ICOptions{N1: n1, SettleCycles: cfg.SettleCycles}
		opt.Shooting.Ctx = ctx
		u0 := vco.StaticDisplacement(p.Value)
		ws, _ := carry.(*core.WarmStart)
		label := "cold"
		var uses, falls int
		if !cfg.Cold {
			if ws == nil {
				ws = &core.WarmStart{}
			}
			if ws.T > 0 && ws.Param != p.Value {
				// Rescale the carried period by the design-equation frequency
				// ratio between the donor and this control: the orbit shape
				// continues from the neighbor, but the period guess centers
				// on this point, saving shooting a Newton step or two.
				fPrev := vco.FreqAtDisplacement(vco.StaticDisplacement(ws.Param))
				ws.T *= fPrev / vco.FreqAtDisplacement(u0)
			}
			uses, falls = ws.Uses, ws.Fallbacks
			ws.Param = p.Value
			opt.Warm = ws
		}

		// Seed the cold path with the design-equation estimate of the local
		// frequency (f ≈ 1/(2π√(L·C(u₀)))): at the edges of the tuning range
		// the nominal 0.75 MHz guess is far enough off that cold shooting
		// diverges, exactly the fragility the warm carrier removes.
		tGuess := 1 / vco.FreqAtDisplacement(u0)
		_, omega0, err := core.InitialCondition(vco, []float64{0.5, 0, u0, 0}, tGuess, opt)
		if err != nil {
			return nil, sweep.Meta{}, nil, fmt.Errorf("vctl %g: %w", p.Value, err)
		}
		if opt.Warm != nil {
			switch {
			case opt.Warm.Fallbacks > falls:
				label = "fallback"
			case opt.Warm.Uses > uses:
				label = "warm"
			}
		}
		pts[p.Seq] = TuningPoint{
			VCtl:   p.Value,
			Index:  p.Index,
			Freq:   omega0,
			T:      1 / omega0,
			U:      u0,
			Warm:   label,
			WallNS: time.Since(t0).Nanoseconds(),
		}
		return nil, sweep.Meta{Warm: label, NS: pts[p.Seq].WallNS}, ws, nil
	}

	emit := func(r *sweep.Result) error {
		if r.Err != nil {
			return r.Err
		}
		res.Points = append(res.Points, pts[r.Seq])
		return nil
	}

	t0 := time.Now()
	err = sweep.Run(ctx, plan, solve, emit, func(fn func(context.Context)) error {
		go fn(ctx)
		return nil
	}, sweep.Options{Lanes: cfg.Lanes})
	if err != nil {
		return nil, err
	}
	res.WallNS = time.Since(t0).Nanoseconds()
	for _, p := range res.Points {
		switch p.Warm {
		case "warm":
			res.WarmUses++
		case "fallback":
			res.Fallbacks++
		}
	}
	return res, nil
}

func tuningPlan(cfg TuningSweepConfig) (*sweep.Plan, error) {
	hasGrid := cfg.Points != 0 || cfg.From != 0 || cfg.To != 0
	switch {
	case hasGrid && len(cfg.Values) > 0:
		return nil, fmt.Errorf("wampde: tuning sweep takes a grid or values, not both")
	case hasGrid:
		return sweep.Grid(cfg.From, cfg.To, cfg.Points)
	case len(cfg.Values) > 0:
		return sweep.Values(cfg.Values)
	default:
		return nil, fmt.Errorf("wampde: tuning sweep needs from/to/points or values")
	}
}
