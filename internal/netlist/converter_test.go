package netlist

import (
	"math"
	"strings"
	"testing"
)

// TestConverterGeneratorsParseAndBuild: both generated netlists must parse
// and compile, expose the catalog node names, carry no oscillation variable
// (converters are forced circuits), and honor the bivariate input contract
// on the diagonal.
func TestConverterGeneratorsParseAndBuild(t *testing.T) {
	gens := []struct {
		name string
		gen  func(duty, fsw float64) (string, error)
	}{
		{"buck-converter", BuckConverter},
		{"boost-converter", BoostConverter},
	}
	for _, g := range gens {
		src, err := g.gen(0.5, 1e5)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !strings.Contains(src, "* "+g.name+" duty=0.5") {
			t.Fatalf("%s: header comment missing parameters:\n%s", g.name, src)
		}
		ckt, err := Parse(src)
		if err != nil {
			t.Fatalf("%s parse: %v", g.name, err)
		}
		sys, err := ckt.Build()
		if err != nil {
			t.Fatalf("%s build: %v", g.name, err)
		}
		for _, node := range []string{"vin", "sw", "snub", "out"} {
			if _, err := sys.NodeIndex(node); err != nil {
				t.Fatalf("%s: node %q missing: %v", g.name, node, err)
			}
		}
		if sys.OscVar() >= 0 {
			t.Fatalf("%s: unexpected oscillation variable %d", g.name, sys.OscVar())
		}
		// The PWM control must separate into fast and slow arguments, with
		// the univariate view on the diagonal.
		u1 := make([]float64, sys.NumInputs())
		u2 := make([]float64, sys.NumInputs())
		for _, tt := range []float64{0, 1.3e-6, 7.7e-6} {
			sys.Input(tt, u1)
			sys.Input2(tt, tt, u2)
			for i := range u1 {
				if u1[i] != u2[i] {
					t.Fatalf("%s: input %d at t=%g: univariate %v != diagonal %v",
						g.name, i, tt, u1[i], u2[i])
				}
			}
		}
		// The duty is a DC control here, so the fast argument alone decides
		// the switch state: mid-on-plateau must differ from mid-off.
		sys.Input2(0.25e-5, 0, u1)
		sys.Input2(0.75e-5, 0, u2)
		same := true
		for i := range u1 {
			if u1[i] != u2[i] {
				same = false
			}
		}
		if same {
			t.Fatalf("%s: PWM input does not ride the fast scale", g.name)
		}
	}
}

// TestConverterGeneratorsRejectBadParams: duty and fsw outside the catalog
// bounds (or non-finite) must be rejected by both generators.
func TestConverterGeneratorsRejectBadParams(t *testing.T) {
	bad := []struct{ duty, fsw float64 }{
		{0.01, 1e5},          // duty below the floor
		{0.95, 1e5},          // duty above the cap
		{-0.5, 1e5},          // negative duty
		{math.NaN(), 1e5},    // non-finite duty
		{0.5, 100},           // fsw below the floor
		{0.5, 1e8},           // fsw above the cap
		{0.5, -1e5},          // negative fsw
		{0.5, math.Inf(1)},   // non-finite fsw
		{math.Inf(-1), -1e5}, // both bad
	}
	for _, b := range bad {
		if _, err := BuckConverter(b.duty, b.fsw); err == nil {
			t.Fatalf("buck accepted duty=%g fsw=%g", b.duty, b.fsw)
		}
		if _, err := BoostConverter(b.duty, b.fsw); err == nil {
			t.Fatalf("boost accepted duty=%g fsw=%g", b.duty, b.fsw)
		}
	}
}

// TestConverterNominalHelpers pins the ideal conversion ratios the goldens
// anchor to.
func TestConverterNominalHelpers(t *testing.T) {
	if got := BuckNominalOut(0.5); got != 6 {
		t.Fatalf("BuckNominalOut(0.5) = %v, want 6", got)
	}
	if got := BoostNominalOut(0.5); got != 10 {
		t.Fatalf("BoostNominalOut(0.5) = %v, want 10", got)
	}
}
