package netlist

import (
	"math"
	"strings"
	"testing"

	"repro/internal/transient"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1k", 1e3}, {"2.5u", 2.5e-6}, {"10n", 1e-8}, {"3p", 3e-12},
		{"4f", 4e-15}, {"1meg", 1e6}, {"2g", 2e9}, {"1t", 1e12},
		{"5m", 5e-3}, {"-3.3m", -3.3e-3}, {"42", 42}, {"1e-9", 1e-9},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", c.in, err)
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Fatalf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseValue("abc"); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestParseSourceForms(t *testing.T) {
	w, err := ParseSource("DC(5)")
	if err != nil || w(9) != 5 {
		t.Fatalf("DC: %v %v", err, w)
	}
	w, err = ParseSource("3.3")
	if err != nil || w(0) != 3.3 {
		t.Fatalf("bare: %v", err)
	}
	w, err = ParseSource("SIN(1.5 3.3 25k)")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w(0)-1.5) > 1e-12 {
		t.Fatalf("SIN(0) = %v", w(0))
	}
	if math.Abs(w(1.0/(4*25e3))-4.8) > 1e-9 {
		t.Fatalf("SIN quarter = %v", w(1.0/(4*25e3)))
	}
	w, err = ParseSource("PULSE(0 5 0 1u 2u 1u 10u)")
	if err != nil || w(2e-6) != 5 {
		t.Fatalf("PULSE: %v", err)
	}
	w, err = ParseSource("PWL(0 0 1 10)")
	if err != nil || w(0.5) != 5 {
		t.Fatalf("PWL: %v", err)
	}
	for _, bad := range []string{"SIN(1)", "PWL(0 0 0 1)", "PWL(1 2 3)", "XX(1)"} {
		if _, err := ParseSource(bad); err == nil {
			t.Fatalf("source %q should fail", bad)
		}
	}
}

func TestParseDividerAndSimulate(t *testing.T) {
	src := `
* a divider
V1 in 0 DC(10)
R1 in mid 1k
R2 mid 0 3k
`
	ckt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	mid, _ := sys.NodeIndex("mid")
	if math.Abs(x[mid]-7.5) > 1e-8 {
		t.Fatalf("mid = %v", x[mid])
	}
}

func TestParseVCONetlist(t *testing.T) {
	src := `
* the paper's MEMS VCO
L1 tank 0 10u esr=5
N1 tank 0 g1=-10m g3=3.3m
M1 tank 0 c0=8.37n d0=1 m=4.05e-13 b=1.27e-7 k=1 gamma=0.382 ctl=SIN(1.5 3.3 25k)
.oscvar tank
`
	ckt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dim() != 4 {
		t.Fatalf("dim = %d, want 4", sys.Dim())
	}
	if sys.OscVar() < 0 {
		t.Fatal("oscvar not set")
	}
	if sys.NumInputs() != 1 {
		t.Fatalf("inputs = %d", sys.NumInputs())
	}
}

func TestParseAllElements(t *testing.T) {
	src := `
V1 a 0 SIN(0 1 1k)
R1 a b 100
C1 b 0 1u
L1 b c 1m
D1 c 0 is=1e-12 vt=26m
D2 c 0
G1 c 0 a 0 1m
I1 c 0 DC(1m)
N1 c 0 g1=-1m g3=1m
`
	ckt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckt.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestParseComments(t *testing.T) {
	src := "* full comment\nR1 a 0 1k ; trailing comment\n\n  \n"
	ckt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckt.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"R1 a 0",                                // missing value
		"R1 a 0 -5",                             // non-positive resistor
		"R1 a 0 xyz",                            // bad value
		"Q1 a 0 1",                              // unknown element
		".foo bar",                              // unknown directive
		".oscvar",                               // missing node
		"G1 a 0 b 0",                            // VCCS missing gm
		"N1 a 0 g1=-1m",                         // missing g3
		"N1 a 0 g3=1m",                          // missing g1
		"M1 a 0 c0=1n",                          // missing MEMS params
		"M1 a 0 c0=1n d0=1 m=1 b=1 k=1 gamma=1", // missing ctl
		"L1 a 0 1u esr",                         // bad key=value
		"V1 a 0 SIN(1)",                         // bad source
		"R1 a 0 1k\nR1 b 0 2k",                  // duplicate name
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("netlist %q should fail", src)
		}
	}
	for _, src := range bad {
		if !strings.Contains(errOf(src), "line") {
			t.Fatalf("error for %q should cite the line", src)
		}
	}
}

func errOf(src string) string {
	_, err := Parse(src)
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestTokenizeGroups(t *testing.T) {
	toks := tokenize("V1 in 0 SIN(1 2 3) x=4")
	if len(toks) != 5 {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[3] != "SIN(1 2 3)" {
		t.Fatalf("group token = %q", toks[3])
	}
}

func TestParseMOSFET(t *testing.T) {
	src := `
VDD vdd 0 DC(2.5)
T1 d g 0 type=n k=2m vt=0.7 lambda=0.01
T2 d g vdd type=p k=1m vt=0.6
R1 d 0 10k
R2 g 0 10k
`
	ckt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckt.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse("T1 d g"); err == nil {
		t.Fatal("missing source node should fail")
	}
	if _, err := Parse("T1 d g 0 type=x"); err == nil {
		t.Fatal("unknown type should fail")
	}
}
