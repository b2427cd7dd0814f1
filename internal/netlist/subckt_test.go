package netlist

import (
	"math"
	"strings"
	"testing"

	"repro/internal/transient"
)

func TestSubcktExpansionBasic(t *testing.T) {
	src := `
* two dividers sharing a source
.subckt div top bot
R1 top mid 1k
R2 mid bot 1k
.ends
V1 in 0 DC(10)
Xa in 0 div
Xb in 0 div
`
	ckt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: in, Xa.mid, Xb.mid (+ground); the V source adds one extra.
	if _, err := sys.NodeIndex("Xa.mid"); err != nil {
		t.Fatal("instance-scoped node Xa.mid missing")
	}
	if _, err := sys.NodeIndex("Xb.mid"); err != nil {
		t.Fatal("instance-scoped node Xb.mid missing")
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	mid, _ := sys.NodeIndex("Xa.mid")
	if math.Abs(x[mid]-5) > 1e-8 {
		t.Fatalf("Xa.mid = %v, want 5", x[mid])
	}
}

func TestSubcktExpansionNested(t *testing.T) {
	src := `
.subckt half top bot
R1 top bot 1k
.ends
.subckt div top bot
Xu top mid half
Xl mid bot half
.ends
V1 in 0 DC(8)
Xd in 0 div
.oscvar in
`
	ckt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The inner node of the nested instance is doubly scoped.
	if _, err := sys.NodeIndex("Xd.mid"); err != nil {
		t.Fatal("node Xd.mid missing")
	}
	x := make([]float64, sys.Dim())
	if err := transient.DCOperatingPoint(sys, 0, x); err != nil {
		t.Fatal(err)
	}
	mid, _ := sys.NodeIndex("Xd.mid")
	if math.Abs(x[mid]-4) > 1e-8 {
		t.Fatalf("Xd.mid = %v, want 4", x[mid])
	}
}

func TestSubcktErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing-ends", ".subckt s a b\nR1 a b 1k\n", "missing .ends"},
		{"unknown-subckt", "X1 a 0 nosuch\n", "unknown subcircuit"},
		{"wrong-ports", ".subckt s a b\nR1 a b 1k\n.ends\nX1 a s\n", "wants 2 nodes"},
		{"nested-def", ".subckt s a b\n.subckt t c d\n.ends\n.ends\n", ".subckt inside .subckt"},
		{"ends-alone", ".ends\n", ".ends without .subckt"},
		{"dup-def", ".subckt s a\n.ends\n.subckt s a\n.ends\n", "duplicate .subckt"},
		{"no-name", ".subckt\n", "wants a name"},
		{"recursive", ".subckt s a\nX1 a s\n.ends\nX0 n s\n", "nesting deeper"},
		{"bare-instance", "X1\n", "wants nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSubcktErrorNamesInstance(t *testing.T) {
	src := ".subckt s a\nR1 a 0 -5\n.ends\nXbad n s\n"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("negative resistor inside instance accepted")
	}
	if !strings.Contains(err.Error(), "in Xbad") {
		t.Fatalf("error %q does not carry the instance context", err)
	}
}
