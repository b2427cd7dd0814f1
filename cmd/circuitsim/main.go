// Command circuitsim is a small SPICE-like driver over the simulation
// library: it reads a netlist (see internal/netlist for the format) and
// runs one of the analyses:
//
//	circuitsim -i ckt.sp -analysis dc
//	circuitsim -i ckt.sp -analysis tran -tstop 1m -h 1u [-out node]
//	circuitsim -i ckt.sp -analysis pss -period 1u
//	circuitsim -i ckt.sp -analysis envelope -tstop 60u -steps 400 -f0 750k
//
// The envelope analysis runs the WaMPDE and requires the netlist to mark an
// oscillation node with ".oscvar <node>".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	wampde "repro"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/shooting"
	"repro/internal/solverr"
	"repro/internal/textplot"
	"repro/internal/transient"
)

func main() {
	in := flag.String("i", "", "netlist file (required)")
	analysis := flag.String("analysis", "dc", "dc | tran | pss | envelope")
	tstopStr := flag.String("tstop", "", "end time for tran/envelope (suffixes ok, e.g. 60u)")
	hstepStr := flag.String("h", "", "time step for tran (suffixes ok)")
	periodStr := flag.String("period", "", "forcing period for pss (suffixes ok)")
	steps := flag.Int("steps", 400, "t2 steps for envelope")
	n1 := flag.Int("n1", 25, "warped-axis points for envelope")
	f0 := flag.String("f0", "", "oscillation frequency guess for pss/envelope (e.g. 750k)")
	matfree := flag.Bool("matfree", false, "envelope only: apply the bordered step Jacobian matrix-free (spectral operator) instead of assembling it — the large-circuit path")
	out := flag.String("out", "", "node to print (default: all states)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the analysis (0 = none); tran/envelope print the partial waveform computed before expiry")
	flag.Parse()

	ctx := context.Context(nil)
	if *timeout > 0 {
		c, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ctx = c
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "circuitsim: -i <netlist> is required")
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	fatal(err)
	tstop := parseOpt(*tstopStr)
	hstep := parseOpt(*hstepStr)
	period := parseOpt(*periodStr)
	ckt, err := netlist.Parse(string(src))
	fatal(err)
	sys, err := ckt.Build()
	fatal(err)

	outIdx := -1
	if *out != "" {
		outIdx, err = sys.NodeIndex(*out)
		fatal(err)
	}

	switch *analysis {
	case "dc":
		x := make([]float64, sys.Dim())
		fatal(transient.DCOperatingPoint(sys, 0, x))
		for i, v := range x {
			fmt.Printf("%-16s %.8g\n", sys.StateName(i), v)
		}
	case "tran":
		if tstop <= 0 || hstep <= 0 {
			fatal(solverr.New(solverr.KindBadInput, "circuitsim", "tran needs -tstop and -h"))
		}
		x := make([]float64, sys.Dim())
		fatal(transient.DCOperatingPoint(sys, 0, x))
		res, err := transient.Simulate(sys, x, 0, tstop, transient.Options{Method: transient.Trap, H: hstep, Ctx: ctx})
		if err != nil && (res == nil || len(res.T) == 0) {
			fatal(err)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "circuitsim: partial run:", err)
		}
		printSeries(sys, res, outIdx)
		if err != nil {
			os.Exit(solverr.ExitCode(err)) // partial printed; status still reports the kind
		}
	case "pss":
		if period <= 0 {
			fatal(solverr.New(solverr.KindBadInput, "circuitsim", "pss needs -period"))
		}
		x := make([]float64, sys.Dim())
		fatal(transient.DCOperatingPoint(sys, 0, x))
		pss, err := shooting.Forced(sys, x, period, shooting.Options{Method: transient.Trap, Ctx: ctx})
		fatal(err)
		fmt.Printf("# periodic steady state, period %.6g\n", pss.T)
		printSeries(sys, pss.Orbit, outIdx)
	case "envelope":
		if tstop <= 0 {
			fatal(solverr.New(solverr.KindBadInput, "circuitsim", "envelope needs -tstop"))
		}
		if sys.OscVar() < 0 {
			fatal(solverr.New(solverr.KindBadInput, "circuitsim", "envelope needs '.oscvar <node>' in the netlist"))
		}
		fGuess := wampde.VCONominalFreq
		if *f0 != "" {
			v, err := netlist.ParseValue(*f0)
			fatal(err)
			fGuess = v
		}
		// Kick the oscillation variable off equilibrium for the settling run.
		xg := make([]float64, sys.Dim())
		fatal(transient.DCOperatingPoint(sys, 0, xg))
		xg[sys.OscVar()] += 0.5
		xhat0, omega0, err := core.InitialCondition(sys, xg, 1/fGuess, core.ICOptions{N1: *n1})
		fatal(err)
		eopt := core.EnvelopeOptions{
			N1: *n1, H2: tstop / float64(*steps), Trap: true, Ctx: ctx,
		}
		if *matfree {
			eopt.Linear = core.LinearMatrixFree
		}
		res, err := core.Envelope(sys, xhat0, omega0, tstop, eopt)
		if err != nil && (res == nil || len(res.T2) == 0) {
			fatal(err)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "circuitsim: partial run:", err)
		}
		fmt.Println("# t2, local_frequency_hz")
		for k := range res.T2 {
			fmt.Printf("%.8g %.8g\n", res.T2[k], res.Omega[k])
		}
		freqs := make([]float64, len(res.Omega))
		copy(freqs, res.Omega)
		p := textplot.NewPlot("local frequency", 72, 14)
		p.Add(res.T2, freqs, '*')
		fmt.Fprint(os.Stderr, p.Render())
		if err != nil {
			os.Exit(solverr.ExitCode(err)) // partial printed; status still reports the kind
		}
	default:
		fatal(solverr.New(solverr.KindBadInput, "circuitsim", "unknown analysis %q", *analysis))
	}
}

func printSeries(sys *wampde.CircuitSystem, res *transient.Result, outIdx int) {
	if outIdx >= 0 {
		fmt.Printf("# t, %s\n", sys.StateName(outIdx))
		for i := range res.T {
			fmt.Printf("%.8g %.8g\n", res.T[i], res.X[i][outIdx])
		}
		return
	}
	fmt.Print("# t")
	for i := 0; i < sys.Dim(); i++ {
		fmt.Printf(", %s", sys.StateName(i))
	}
	fmt.Println()
	for i := range res.T {
		fmt.Printf("%.8g", res.T[i])
		for j := 0; j < sys.Dim(); j++ {
			fmt.Printf(" %.8g", res.X[i][j])
		}
		fmt.Println()
	}
}

func parseOpt(s string) float64 {
	if s == "" {
		return 0
	}
	v, err := netlist.ParseValue(s)
	fatal(err)
	return v
}

// fatal exits with the failure kind's exit code (see solverr.ExitCode):
// bad input 2, singular 3, breakdown 4, stagnation 5, non-finite 6, budget
// 7, canceled 8, unclassified 1 — so batch harnesses can dispatch on the
// status without parsing stderr.
func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "circuitsim:", err)
		os.Exit(solverr.ExitCode(err))
	}
}
