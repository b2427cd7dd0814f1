package wampde_test

// BenchmarkRingScaling pins the scaling claim behind the matrix-free spectral
// WaMPDE operator: envelope-following on the generated N-stage ring VCO, dense
// bordered Jacobian versus core.LinearMatrixFree, as the circuit grows. Each
// step's bordered system has N1·(3·stages)+1 unknowns, so the dense path's
// O(total³) factorizations fall behind the matrix-free path's GMRES
// iterations as stages grows. Iteration k costs a matvec,
// O(N1·nnz(JQ, JF) + n·N1·log N1), a harmonic-preconditioner apply,
// O(N1·(nnz L + nnz U) + n·N1·log N1), and Gram–Schmidt's O(k·total).
// BenchmarkQPRingScaling makes the same comparison for the quasiperiodic
// solver, whose dense Jacobian couples the whole N1×N2 bivariate grid at
// once and hits the cubic wall much sooner.
// Each family applies ringGate to its own run: matrix-free must win by 3×
// at its first stage count of 15 or more run in both modes and must not be
// slower above it, or the benchmark fails (`ci.sh ring-bench-check` runs
// both families).
//
// The envelope starts from the true limit cycle: the standard settle+shoot
// preamble (core.InitialCondition), seeded with the analytic dominant-mode
// wave the generator designs for (see internal/netlist/generate.go) and
// cached per stage count, runs outside the timer, so both modes solve the
// identical sequence of envelope steps and only the step linear algebra is
// measured.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
)

// ringBenchStages is the scaling sweep. It stops at 31 stages (32·93+1 =
// 2977 unknowns, 2× past the serving layer's matrix-free cutover): the bound
// is the shared settle+shoot preamble's convergence, not its cost and not
// the envelope under test. At 63 stages (189 states) autonomous shooting,
// started from the 20-cycle settle, drives the period negative (T = −0.165)
// at its third Newton iteration and fails after about two minutes on a
// 2-vCPU VM. A preamble that converges at every size is ROADMAP work; the
// generators themselves go to 63.
var ringBenchStages = []int{3, 7, 15, 31}

func ringBenchSystem(b *testing.B, stages int) *circuit.System {
	b.Helper()
	src, err := netlist.RingVCO(stages, 0) // default slow control sweep
	if err != nil {
		b.Fatal(err)
	}
	ckt, err := netlist.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ckt.Build()
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// ringStageIndex parses the stage number out of a ring state name
// ("v(s12)" → 12).
func ringStageIndex(name string) (int, bool) {
	inner := strings.TrimSuffix(strings.TrimPrefix(name, "v("), ")")
	if len(inner) < 2 {
		return 0, false
	}
	j := 0
	for _, r := range inner[1:] {
		if r < '0' || r > '9' {
			return 0, false
		}
		j = 10*j + int(r-'0')
	}
	return j, true
}

// ringWaveGuess is the analytic dominant-mode state at t = 0: stage k at
// cos(−2π·k·k̂/N) with k̂ = (N−1)/2 (the traveling-wave mode the generator's
// gain margin selects, amplitude 1 by the cubic's describing function), MEMS
// displacements at their electrostatic equilibrium. It seeds the settling
// transient inside core.InitialCondition.
func ringWaveGuess(sys *circuit.System, stages int) []float64 {
	khat := float64(stages-1) / 2
	uEq := 0.382 * netlist.VctlDefault * netlist.VctlDefault
	x := make([]float64, sys.Dim())
	for i := range x {
		name := sys.StateName(i)
		switch {
		case strings.HasSuffix(name, "#0"):
			x[i] = uEq
		case strings.HasSuffix(name, "#1"):
			x[i] = 0
		default:
			if k, ok := ringStageIndex(name); ok {
				x[i] = math.Cos(-2 * math.Pi * float64(k) * khat / float64(stages))
			}
		}
	}
	return x
}

// ringICCache memoizes the settle+shoot initial condition per (stages, N1)
// configuration, exactly like vcoICCache does for the paper VCO, so -cpu
// reruns and the dense/matfree pair share one preamble. N1 is part of the key
// because the envelope sweep collocates at 32 points while the quasiperiodic
// sweep uses 16 — the shot initial condition is an N1-point waveform.
var ringICCache sync.Map // [2]int{stages, n1} -> *vcoICEntry

func prepRingIC(b *testing.B, sys *circuit.System, stages, n1 int) ([]float64, float64) {
	b.Helper()
	v, _ := ringICCache.LoadOrStore([2]int{stages, n1}, &vcoICEntry{})
	e := v.(*vcoICEntry)
	e.once.Do(func() {
		fNom := netlist.RingVCONominalFreq(stages, netlist.VctlDefault)
		e.ic, e.w0, e.err = core.InitialCondition(sys, ringWaveGuess(sys, stages), 1/fNom,
			core.ICOptions{N1: n1})
	})
	if e.err != nil {
		b.Fatal(e.err)
	}
	return e.ic, e.w0
}

// ringQPStages is the quasiperiodic scaling sweep. It stops at 15 stages:
// the dense path's global bordered Jacobian there is already
// (16·8·45 + 8)² ≈ 3.3e7 entries, and its LU is the very O(total³) wall the
// matrix-free operator exists to avoid — larger dense points measure nothing
// new, they just burn CI minutes.
var ringQPStages = []int{3, 7, 15}

// ringQPEntry caches one stage count's envelope-derived quasiperiodic guess
// under the same once-with-stored-error discipline as vcoICEntry.
type ringQPEntry struct {
	once  sync.Once
	guess *core.QPGuess
	err   error
}

var ringQPCache sync.Map // stages -> *ringQPEntry

// prepRingQPGuess builds the quasiperiodic initial iterate for one ring: the
// memoized settle+shoot initial condition feeds a two-slow-period envelope
// run (the first period settles the MEMS transient, the trailing one is the
// steady quasiperiodic orbit), and core.GuessFromEnvelope samples that
// trailing window onto the N1×N2 grid. All of it runs outside the timer and
// is cached per stage count, so the dense/matfree pair iterate from the
// identical guess. It returns the guess and the slow period T2.
func prepRingQPGuess(b *testing.B, sys *circuit.System, stages, n1, n2 int) (*core.QPGuess, float64) {
	b.Helper()
	fNom := netlist.RingVCONominalFreq(stages, netlist.VctlDefault)
	t2 := netlist.CtlDivDefault / fNom
	xhat0, w0 := prepRingIC(b, sys, stages, n1)
	v, _ := ringQPCache.LoadOrStore(stages, &ringQPEntry{})
	e := v.(*ringQPEntry)
	e.once.Do(func() {
		env, err := core.Envelope(sys, xhat0, w0, 2*t2, core.EnvelopeOptions{
			N1: n1, H2: t2 / 16, Trap: true, ChordNewton: true,
		})
		if err != nil {
			e.err = err
			return
		}
		e.guess, e.err = core.GuessFromEnvelope(env, t2, n1, n2)
	})
	if e.err != nil {
		b.Fatal(e.err)
	}
	return e.guess, t2
}

func BenchmarkRingScaling(b *testing.B) {
	// Power-of-two collocation: at N1=25 every spectral matvec pays the
	// Bluestein chirp path (three padded 64-point FFTs per transform), which
	// dominates the matrix-free profile; N1=32 keeps the differentiation on
	// the radix-2 path — the configuration anyone scaling N1 up would pick.
	const n1 = 32
	times := ringTimes{}
	for _, stages := range ringBenchStages {
		for _, mode := range []string{"dense", "matfree"} {
			b.Run(fmt.Sprintf("stages=%d/%s", stages, mode), func(b *testing.B) {
				sys := ringBenchSystem(b, stages)
				fNom := netlist.RingVCONominalFreq(stages, netlist.VctlDefault)
				xhat0, w0 := prepRingIC(b, sys, stages, n1)
				h2 := 20 / fNom
				opt := core.EnvelopeOptions{
					N1: n1, H2: h2, Trap: true, ChordNewton: true,
				}
				if mode == "matfree" {
					opt.Linear = core.LinearMatrixFree
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Envelope(sys, xhat0, w0, 3*h2, opt)
					if err != nil {
						b.Fatal(err)
					}
					sinkF = res.Omega[len(res.Omega)-1]
				}
				times.record(b, stages, mode)
			})
		}
	}
	report, ok := ringGate(times)
	gate(b, report, ok)
}

// BenchmarkQPRingScaling is BenchmarkRingScaling's claim for the other §4.1
// solver: one global quasiperiodic solve of the N-stage ring under its
// default slow control sweep, dense bordered Jacobian versus
// core.LinearMatrixFree. The dense path factorizes the full
// (N1·N2·n + N2)-unknown bivariate system, so it falls off the O(total³)
// cliff far sooner than the envelope (whose dense steps are only
// N1·n+1-sized) — the quasiperiodic solver is where the matrix-free operator
// pays first. It applies ringGate to its own pairs, independently of the
// envelope family.
func BenchmarkQPRingScaling(b *testing.B) {
	// N1=16 keeps the fast-axis differentiation on the radix-2 FFT path
	// (see BenchmarkRingScaling's n1 note); N2=8 resolves the sinusoidal
	// control modulation, which is spectrally almost pure on the slow axis.
	const n1, n2 = 16, 8
	times := ringTimes{}
	for _, stages := range ringQPStages {
		for _, mode := range []string{"dense", "matfree"} {
			b.Run(fmt.Sprintf("stages=%d/%s", stages, mode), func(b *testing.B) {
				sys := ringBenchSystem(b, stages)
				guess, t2 := prepRingQPGuess(b, sys, stages, n1, n2)
				opt := core.QPOptions{N1: n1, N2: n2, ChordNewton: true}
				if mode == "matfree" {
					opt.Linear = core.LinearMatrixFree
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qp, err := core.Quasiperiodic(sys, t2, guess, opt)
					if err != nil {
						b.Fatal(err)
					}
					sinkF = qp.OmegaMean()
				}
				times.record(b, stages, mode)
			})
		}
	}
	report, ok := ringGate(times)
	gate(b, report, ok)
}
