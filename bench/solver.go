package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mpde"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/transient"
)

// solverCase is one solver workload: the circuit build and (where the
// workload has one) the initial-condition preamble that make up its set-up,
// the multi-time solve under test, the baseline it is compared against, and
// the output check. The solver inputs are the paper's fixed ones; the seed
// does not change them.
type solverCase struct {
	n1         int     // t1 collocation points; kernels time LU at N1·n+1, FFT at N1
	solveShare float64 // share of the measurement window given to solves
	build      func() (circuitSystem, error)
	ic         func(sys circuitSystem) error // nil: the solves start from zero
	solve      func(sys circuitSystem) (*core.EnvelopeResult, error)
	baseline   func(sys circuitSystem) (any, error)
	check      func(r *runner, sol *core.EnvelopeResult, base any)
}

func runVCOAir(r *runner) error { return runSolver(r, vcoAirCase(r.small)) }

// vcoAirCase is the paper's §5 experiment behind Figures 10–12: the
// air-damped VCO over 3 ms in 600 trapezoidal t2 steps with chord Newton on
// dense LU, against the trapezoidal transient at 1000 points per nominal
// cycle that the paper says matching its phase accuracy takes.
func vcoAirCase(small bool) *solverCase {
	span, steps := 3e-3, 600
	if small {
		span, steps = 0.3e-3, 60
	}
	const n1 = 25
	var (
		vco *circuit.VCO
		ic  []float64
		w0  float64
	)
	return &solverCase{
		n1: n1, solveShare: 0.25,
		build: func() (circuitSystem, error) {
			v, err := circuit.NewVCO(circuit.AirVCOParams())
			if err != nil {
				return nil, err
			}
			vco = v
			return v.System, nil
		},
		ic: func(sys circuitSystem) (err error) {
			u0 := vco.StaticDisplacement(vco.Params.VCtl(0))
			ic, w0, err = core.InitialCondition(sys, []float64{0.5, 0, u0, 0}, 1/circuit.VCONominalFreq, core.ICOptions{N1: n1})
			return err
		},
		solve: func(sys circuitSystem) (*core.EnvelopeResult, error) {
			return core.Envelope(sys, ic, w0, span, core.EnvelopeOptions{
				N1: n1, H2: span / float64(steps), Trap: true, ChordNewton: true,
			})
		},
		baseline: func(sys circuitSystem) (any, error) {
			x0 := append([]float64(nil), ic[:sys.Dim()]...)
			return transient.Simulate(sys, x0, 0, span, transient.Options{
				Method: transient.Trap, H: 1 / (circuit.VCONominalFreq * 1000),
			})
		},
		check: func(r *runner, sol *core.EnvelopeResult, base any) {
			r.check("check.phase_err_cycles", "cycles", phaseErrCycles(vco, span, sol, base.(*transient.Result)), maxPhaseErrCycles)
		},
	}
}

func runRing15(r *runner) error { return runSolver(r, ring15Case(r.small)) }

// ring15Case is the generated 15-stage ring VCO (45 states) under its
// default slow control sweep, three t2 steps of 20 nominal periods each (as
// in BenchmarkRingScaling), solved on the matrix-free path and, as the
// baseline, on dense LU.
func ring15Case(small bool) *solverCase {
	stages, steps := 15, 3
	if small {
		stages, steps = 3, 2
	}
	const n1 = 32 // radix-2: the FFT path anyone scaling N1 up would pick
	fNom := netlist.RingVCONominalFreq(stages, netlist.VctlDefault)
	h2 := 20 / fNom
	var (
		guess []float64
		ic    []float64
		w0    float64
	)
	envelope := func(sys circuitSystem, linear core.LinearKind) (*core.EnvelopeResult, error) {
		return core.Envelope(sys, ic, w0, float64(steps)*h2, core.EnvelopeOptions{
			N1: n1, H2: h2, Trap: true, ChordNewton: true, Linear: linear,
		})
	}
	return &solverCase{
		n1: n1, solveShare: 0.5,
		build: func() (circuitSystem, error) {
			src, err := netlist.RingVCO(stages, 0)
			if err != nil {
				return nil, err
			}
			sys, err := buildNetlist(src)
			if err != nil {
				return nil, err
			}
			guess = ringWaveGuess(sys, stages)
			return sys, nil
		},
		ic: func(sys circuitSystem) (err error) {
			ic, w0, err = core.InitialCondition(sys, guess, 1/fNom, core.ICOptions{N1: n1})
			return err
		},
		solve: func(sys circuitSystem) (*core.EnvelopeResult, error) {
			return envelope(sys, core.LinearMatrixFree)
		},
		baseline: func(sys circuitSystem) (any, error) {
			return envelope(sys, core.LinearDenseLU)
		},
		check: func(r *runner, sol *core.EnvelopeResult, base any) {
			r.check("check.omega_rel_err", "ratio", omegaRelErr(sol, base.(*core.EnvelopeResult)), maxOmegaRelErr)
		},
	}
}

func runBuckRipple(r *runner) error { return runSolver(r, buckCase(r.small)) }

// buckCase is the converter scenario of BenchmarkConverterRipple: the
// catalog buck at 100 kHz with its duty modulated 0.35..0.55 at 100 Hz, over
// 50 ms, with the ripple envelope taking 50 switching periods per t2 step and
// the transient resolving every edge at 200 steps per period.
func buckCase(small bool) *solverCase {
	const fsw, n1 = 1e5, netlist.BuckN1
	t2End := 5e-2
	if small {
		t2End = 1e-2
	}
	var iout int
	return &solverCase{
		n1: n1, solveShare: 0.4,
		build: func() (circuitSystem, error) {
			src, err := netlist.BuckConverter(0.5, fsw)
			if err != nil {
				return nil, err
			}
			modulated := strings.Replace(src, "PWM(DC(0.5)", "PWM(SIN(0.45 0.1 100)", 1)
			if modulated == src {
				return nil, errors.New("buck netlist has no DC duty source to modulate")
			}
			sys, err := buildNetlist(modulated)
			if err != nil {
				return nil, err
			}
			iout, err = sys.NodeIndex("out")
			return sys, err
		},
		solve: func(sys circuitSystem) (*core.EnvelopeResult, error) {
			opt := mpde.RippleOptions(n1, fsw, 50)
			opt.ChordContraction = 0.5
			opt.Newton = transient.ConverterNewton
			return mpde.RippleEnvelope(sys, make([]float64, n1*sys.Dim()), fsw, t2End, opt)
		},
		baseline: func(sys circuitSystem) (any, error) {
			return transient.Simulate(sys, make([]float64, sys.Dim()), 0, t2End, transient.Options{
				Method: transient.BDF2, H: 1 / fsw / 200, Newton: transient.ConverterNewton,
			})
		},
		check: func(r *runner, sol *core.EnvelopeResult, base any) {
			r.check("check.ripple_err_v", "V", rippleErrV(sol, base.(*transient.Result), iout, 1/fsw), maxRippleErrV)
		},
	}
}

func buildNetlist(src string) (*circuit.System, error) {
	ckt, err := netlist.Parse(src)
	if err != nil {
		return nil, err
	}
	return ckt.Build()
}

// ringWaveGuess seeds the ring's settling transient with the dominant
// traveling-wave mode the generator designs for: stage k at
// cos(−2π·k·k̂/N) with k̂ = (N−1)/2, the MEMS plates at their electrostatic
// equilibrium.
func ringWaveGuess(sys *circuit.System, stages int) []float64 {
	khat := float64(stages-1) / 2
	x := make([]float64, sys.Dim())
	for i := range x {
		name := sys.StateName(i)
		var k int
		switch {
		case strings.HasSuffix(name, "#0"):
			x[i] = 0.382 * netlist.VctlDefault * netlist.VctlDefault
		case strings.HasSuffix(name, "#1"):
		default:
			if _, err := fmt.Sscanf(name, "v(s%d)", &k); err == nil {
				x[i] = math.Cos(-2 * math.Pi * float64(k) * khat / float64(stages))
			}
		}
	}
	return x
}

// runSolver runs a solver workload, traced or not.
func runSolver(r *runner, c *solverCase) error {
	if r.tr != nil {
		return tracedSolver(r, c)
	}
	var sys circuitSystem
	err := r.setups(func() (err error) {
		if sys, err = c.build(); err != nil || c.ic == nil {
			return err
		}
		return c.ic(sys)
	})
	if err != nil {
		return err
	}

	// Operation 0 is the solve, 1 the baseline. The first result of each is
	// kept until both exist and are checked, then dropped (a transient's is
	// hundreds of MB); every repeat must match its first bit for bit.
	ops := [2]func() (any, error){
		func() (any, error) { return c.solve(sys) },
		func() (any, error) { return c.baseline(sys) },
	}
	var (
		first   [2]any
		checked bool
		prints  [2][]float64
		times   [2][]float64
		allocMB []float64
	)
	r.interleave(c.solveShare, func(i int) error {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		t := time.Now()
		res, err := ops[i]()
		d := time.Since(t)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return err
		}
		if err := sameBits(&prints[i], fingerprint(res)); err != nil {
			return err
		}
		times[i] = append(times[i], millis(d))
		if i == 0 {
			allocMB = append(allocMB, float64(ms.TotalAlloc-alloc)/1e6)
		}
		if !checked && first[i] == nil {
			first[i] = res
		}
		if !checked && first[0] != nil && first[1] != nil {
			c.check(r, first[0].(*core.EnvelopeResult), first[1])
			first, checked = [2]any{}, true
		}
		return nil
	})
	r.record("solve_ms", "ms", times[0]...)
	r.record("baseline_ms", "ms", times[1]...)
	r.record("alloc_mb", "MB", allocMB...)
	return nil
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// interleave alternates operations 0 and 1 over the measurement window,
// each time running whichever is further below its share of the time spent
// (share0 for operation 0), until the window has passed and each has run at
// least three times, so both have a median. Alternating spreads slow drifts
// in machine speed over both. A collection runs before each operation, so
// none pays for another's garbage.
func (r *runner) interleave(share0 float64, op func(i int) error) {
	const minReps = 3
	window := time.Duration(r.seconds * float64(time.Second))
	var spent [2]time.Duration
	var n [2]int
	for {
		closed := spent[0]+spent[1] >= window
		if closed && n[0] >= minReps && n[1] >= minReps {
			return
		}
		i := 1
		if (closed && n[0] < minReps) || (!closed && float64(spent[0]) <= share0*float64(spent[0]+spent[1])) {
			i = 0
		}
		runtime.GC()
		t := time.Now()
		if !r.op([2]string{"solve", "baseline"}[i], op(i)) {
			return
		}
		spent[i] += time.Since(t)
		n[i]++
	}
}

// fingerprint reduces a result to the numbers a repeat must reproduce.
func fingerprint(v any) []float64 {
	switch res := v.(type) {
	case *core.EnvelopeResult:
		return append(append([]float64(nil), res.Omega...), res.X[len(res.X)-1]...)
	case *transient.Result:
		return append([]float64{float64(res.Steps)}, res.X[len(res.X)-1]...)
	}
	return nil
}

// sameBits stores the first fingerprint and reports a later one that
// differs: every solver here is deterministic at any worker count.
func sameBits(first *[]float64, got []float64) error {
	if *first == nil {
		*first = got
		return nil
	}
	if len(got) != len(*first) {
		return errors.New("repeat run changed its result size")
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits((*first)[i]) {
			return fmt.Errorf("repeat run differs at value %d: %v vs %v", i, v, (*first)[i])
		}
	}
	return nil
}

// tracedSolver runs the workload once through the probes: a traced set-up,
// solve and baseline, bracketed by untraced solves on the bare system for the
// tracing overhead and the one-worker speed-up, and the kernel timings at the
// workload's sizes.
func tracedSolver(r *runner, c *solverCase) error {
	tr := r.tr
	setup := tr.begin("setup", nil, "")
	raw, err := c.build()
	if !r.op("setup", err) {
		return err
	}
	p := newProbedSystem(raw)
	if c.ic != nil {
		s := tr.begin("ic", setup, "")
		a := p.charge()
		err := c.ic(p)
		tr.finish(s)
		settle(s, a)
		if !r.op("ic", err) {
			return err
		}
		r.record("shooting.ic_s", "s", s.seconds())
		r.record("shooting.ic_eval_calls", "count", float64(s.Evals))
	}
	tr.finish(setup)

	// Untraced reference solves: twice at the default pool, once at one worker.
	var plain []float64
	for i := 0; i < 2; i++ {
		runtime.GC()
		t := time.Now()
		_, err := c.solve(raw)
		if !r.op("solve", err) {
			return err
		}
		plain = append(plain, time.Since(t).Seconds())
	}
	prev := par.SetWorkers(1)
	runtime.GC()
	t := time.Now()
	_, err = c.solve(raw)
	one := time.Since(t).Seconds()
	par.SetWorkers(prev)
	if !r.op("solve", err) {
		return err
	}

	runtime.GC()
	s := tr.begin("solve", nil, "")
	a := p.charge()
	sol, err := c.solve(p)
	tr.finish(s)
	settle(s, a)
	if !r.op("solve", err) {
		return err
	}
	wall := s.seconds()
	busy := float64(s.EvalNS) / 1e9
	steps := float64(len(sol.T2) - 1)
	r.record("circuit.q_calls", "count", float64(a.q.Load()))
	r.record("circuit.f_calls", "count", float64(a.f.Load()))
	r.record("circuit.jac_calls", "count", float64(a.jq.Load()+a.jf.Load()))
	r.record("circuit.eval_s", "s", busy)
	r.record("circuit.eval_share", "ratio", busy/wall)
	r.record("core.self_s", "s", wall-busy)
	r.record("core.steps", "count", steps)
	r.record("core.rejected", "count", float64(sol.Rejected))
	r.record("core.step_halvings", "count", float64(sol.StepHalvings))
	r.record("core.rescues", "count", float64(sol.LinearGMRESRescues+sol.LinearLURescues+
		sol.FullNewtonRescues+sol.DampedNewtonRescues+sol.ContinuationRescues))
	r.record("newton.iters", "count", float64(sol.NewtonIterTotal))
	r.record("newton.iters_per_step", "ratio", float64(sol.NewtonIterTotal)/steps)
	r.record("la.factorizations", "count", float64(sol.JacobianEvals))
	r.record("la.chord_reuse_ratio", "ratio", float64(sol.JacobianReuses)/float64(sol.NewtonIterTotal))
	r.record("krylov.solves", "count", float64(sol.GMRESSolves))
	r.record("krylov.matvecs", "count", float64(sol.GMRESMatVecs))
	if sol.GMRESSolves > 0 {
		r.record("krylov.matvecs_per_solve", "ratio", float64(sol.GMRESMatVecs)/float64(sol.GMRESSolves))
	}
	r.record("krylov.recycle_hits", "count", float64(sol.RecycleHits))
	r.record("krylov.stagnations", "count", float64(sol.GMRESStagnations))
	r.record("par.workers", "count", float64(par.Workers()))
	r.record("par.speedup", "ratio", one/median(plain))
	r.record("trace.overhead", "ratio", wall/median(plain)-1)

	runtime.GC()
	s = tr.begin("baseline", nil, "")
	a = p.charge()
	base, err := c.baseline(p)
	tr.finish(s)
	settle(s, a)
	if !r.op("baseline", err) {
		return err
	}
	if res, ok := base.(*transient.Result); ok {
		n := float64(res.Steps)
		r.record("transient.steps", "count", n)
		r.record("transient.evals_per_step", "ratio", float64(s.Evals)/n)
		r.record("transient.eval_share", "ratio", float64(s.EvalNS)/1e9/s.seconds())
		r.record("transient.us_per_step", "us", s.seconds()*1e6/n)
	}
	c.check(r, sol, base)

	kernels(r, c.n1*raw.Dim()+1, c.n1)
	if us, ok := r.value("la.factor_us"); ok {
		r.record("la.factor_s_est", "s", float64(sol.JacobianEvals)*us/1e6).note = "computed"
	}
	return nil
}
