package main

import (
	"math"
	"testing"

	"repro/internal/core"
)

// setUp builds a case's system and runs its initial-condition preamble.
func setUp(t *testing.T, c *solverCase) circuitSystem {
	t.Helper()
	sys, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	if c.ic != nil {
		if err := c.ic(sys); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func sameEnvelope(t *testing.T, a, b *core.EnvelopeResult) {
	t.Helper()
	if len(a.T2) != len(b.T2) {
		t.Fatalf("t2 points: %d vs %d", len(a.T2), len(b.T2))
	}
	for k := range a.T2 {
		vals := [][2]float64{{a.T2[k], b.T2[k]}, {a.Omega[k], b.Omega[k]}, {a.Phi[k], b.Phi[k]}}
		for i := range a.X[k] {
			vals = append(vals, [2]float64{a.X[k][i], b.X[k][i]})
		}
		for _, v := range vals {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Fatalf("t2 point %d: %v vs %v", k, v[0], v[1])
			}
		}
	}
}

// TestProbeLeavesSolvesBitwiseIdentical runs the Fig. 10 envelope and the
// buck ripple envelope on the bare system and through the probe, which must
// not change a bit of either result.
func TestProbeLeavesSolvesBitwiseIdentical(t *testing.T) {
	for name, c := range map[string]*solverCase{"vco-air": vcoAirCase(false), "buck-ripple": buckCase(false)} {
		t.Run(name, func(t *testing.T) {
			raw := setUp(t, c)
			plain, err := c.solve(raw)
			if err != nil {
				t.Fatal(err)
			}
			p := newProbedSystem(raw)
			a := p.charge()
			probed, err := c.solve(p)
			if err != nil {
				t.Fatal(err)
			}
			sameEnvelope(t, plain, probed)
			if a.calls() == 0 {
				t.Fatal("the probe counted no device evaluations")
			}
		})
	}
}

// TestProbeCountsRepeat pins the device-evaluation, Newton and
// factorization counts of the Fig. 10 air envelope with chord Newton. They
// are a pure function of the solver, so they repeat exactly from run to run;
// a change to them is a change in the work the solver does.
func TestProbeCountsRepeat(t *testing.T) {
	c := vcoAirCase(false)
	p := newProbedSystem(setUp(t, c))
	want := [6]int64{210575, 110450, 4625, 4625, 2620, 185}
	for run := 0; run < 2; run++ {
		a := p.charge()
		res, err := c.solve(p)
		if err != nil {
			t.Fatal(err)
		}
		got := [6]int64{a.q.Load(), a.f.Load(), a.jq.Load(), a.jf.Load(), int64(res.NewtonIterTotal), int64(res.JacobianEvals)}
		if got != want {
			t.Errorf("run %d: Q, F, JQ, JF calls, Newton iterations, factorizations = %v, want %v", run, got, want)
		}
	}
}
