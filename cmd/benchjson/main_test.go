package main

import (
	"bufio"
	"strings"
	"testing"
)

// parseRun reads canned `go test -bench` output the way main reads stdin.
func parseRun(t *testing.T, text string) []Benchmark {
	t.Helper()
	run, err := readBenchmarks(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// gateCase is one canned run, the verdict it must get and the report lines
// (by substring) that must explain it.
type gateCase struct {
	name string
	run  string
	pass bool
	want []string
}

func runGateCases(t *testing.T, cases []gateCase, gate func([]Benchmark, *strings.Builder) bool) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if got := gate(parseRun(t, tc.run), &out); got != tc.pass {
				t.Fatalf("pass = %v, want %v; report:\n%s", got, tc.pass, out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Fatalf("report lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}

func TestCheckAgainstBaseline(t *testing.T) {
	allocs := func(n int64) *int64 { return &n }
	baseline := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkHotLoopAllocs-2", NsPerOp: 230e6, AllocsPerOp: allocs(1443)},
		{Name: "BenchmarkQuasiperiodicWaMPDE-2", NsPerOp: 158e6, AllocsPerOp: allocs(1624)},
	}}
	const banner = "goos: linux\ngoarch: amd64\npkg: repro\n"
	runGateCases(t, []gateCase{
		{"within baseline", banner +
			"BenchmarkHotLoopAllocs-2   5   231000000 ns/op   1000 B/op   1443 allocs/op\n" +
			"BenchmarkQuasiperiodicWaMPDE-2   7   150000000 ns/op   900 B/op   1624 allocs/op\nPASS\n",
			true, []string{"ok   BenchmarkHotLoopAllocs-2", "ok   BenchmarkQuasiperiodicWaMPDE-2"}},
		{"missing benchmark fails", banner +
			"BenchmarkHotLoopAllocs-2   5   231000000 ns/op   1000 B/op   1443 allocs/op\n",
			false, []string{"FAIL BenchmarkQuasiperiodicWaMPDE-2: missing from this run"}},
		{"allocs within slack pass", banner +
			"BenchmarkHotLoopAllocs-2   5   231000000 ns/op   1000 B/op   1445 allocs/op\n" +
			"BenchmarkQuasiperiodicWaMPDE-2   7   150000000 ns/op   900 B/op   1624 allocs/op\n",
			true, []string{"allocs/op 1445 (baseline 1443)"}},
		{"allocs above baseline plus slack fail", banner +
			"BenchmarkHotLoopAllocs-2   5   231000000 ns/op   1000 B/op   1446 allocs/op\n" +
			"BenchmarkQuasiperiodicWaMPDE-2   7   150000000 ns/op   900 B/op   1624 allocs/op\n",
			false, []string{"FAIL BenchmarkHotLoopAllocs-2: allocs/op 1446 > baseline 1443 (+2 slack)"}},
		{"run without -benchmem fails", banner +
			"BenchmarkHotLoopAllocs-2   5   231000000 ns/op\n" +
			"BenchmarkQuasiperiodicWaMPDE-2   7   150000000 ns/op   900 B/op   1624 allocs/op\n",
			false, []string{"FAIL BenchmarkHotLoopAllocs-2: no allocs/op in run"}},
		{"ns/op drift only warns", banner +
			"BenchmarkHotLoopAllocs-2   5   690000000 ns/op   1000 B/op   1443 allocs/op\n" +
			"BenchmarkQuasiperiodicWaMPDE-2   7   50000000 ns/op   900 B/op   1624 allocs/op\n",
			true, []string{"warn BenchmarkHotLoopAllocs-2", "WARN ns/op +200%", "warn BenchmarkQuasiperiodicWaMPDE-2", "WARN ns/op -68%"}},
	}, func(run []Benchmark, out *strings.Builder) bool {
		return check(baseline, run, 0.20, 2, out)
	})
}

func TestRingGate(t *testing.T) {
	runGateCases(t, []gateCase{
		// The 15-stage envelope reading of a 2-vCPU VM: below the 3x claim.
		{"crossover below minimum fails",
			"BenchmarkRingScaling/stages=15/dense-2   1   1626000000 ns/op\n" +
				"BenchmarkRingScaling/stages=15/matfree-2   1   600000000 ns/op\n",
			false, []string{"FAIL BenchmarkRingScaling stages=15: crossover speedup 2.71x < required 3.00x"}},
		// The 15-stage quasiperiodic reading of the same VM.
		{"crossover above minimum passes",
			"BenchmarkQPRingScaling/stages=15/dense-2   1   34800000000 ns/op\n" +
				"BenchmarkQPRingScaling/stages=15/matfree-2   1   1000000000 ns/op\n",
			true, []string{"ok   BenchmarkQPRingScaling stages=15: crossover speedup 34.80x >= 3.00x"}},
		{"below the gated stage count is reported, not gated",
			"BenchmarkRingScaling/stages=3/dense   1   10000000 ns/op\n" +
				"BenchmarkRingScaling/stages=3/matfree   1   20000000 ns/op\n" +
				"BenchmarkRingScaling/stages=15/dense   1   3300000000 ns/op\n" +
				"BenchmarkRingScaling/stages=15/matfree   1   1000000000 ns/op\n",
			true, []string{"ok   BenchmarkRingScaling stages=3: ungated, matfree 0.50x dense"}},
		{"matrix-free slower than dense above the crossover fails",
			"BenchmarkRingScaling/stages=15/dense   1   3300000000 ns/op\n" +
				"BenchmarkRingScaling/stages=15/matfree   1   1000000000 ns/op\n" +
				"BenchmarkRingScaling/stages=31/dense   1   9000000000 ns/op\n" +
				"BenchmarkRingScaling/stages=31/matfree   1   10000000000 ns/op\n",
			false, []string{"ok   BenchmarkRingScaling stages=15", "FAIL BenchmarkRingScaling stages=31: matfree slower than dense (0.90x)"}},
		// RingScaling's first stage count with both modes is 31, so 31 is
		// its crossover and owes the full 3x, although the quasiperiodic
		// family (gated first) crossed over at 15.
		{"families are gated independently",
			"BenchmarkQPRingScaling/stages=15/dense   1   34800000000 ns/op\n" +
				"BenchmarkQPRingScaling/stages=15/matfree   1   1000000000 ns/op\n" +
				"BenchmarkQPRingScaling/stages=31/dense   1   60000000000 ns/op\n" +
				"BenchmarkQPRingScaling/stages=31/matfree   1   2000000000 ns/op\n" +
				"BenchmarkRingScaling/stages=15/dense   1   3000000000 ns/op\n" +
				"BenchmarkRingScaling/stages=31/dense   1   2000000000 ns/op\n" +
				"BenchmarkRingScaling/stages=31/matfree   1   1000000000 ns/op\n",
			false, []string{
				"ok   BenchmarkQPRingScaling stages=31: matfree 30.00x dense",
				"ok   BenchmarkRingScaling stages=15: single mode only",
				"FAIL BenchmarkRingScaling stages=31: crossover speedup 2.00x < required 3.00x",
			}},
		{"family without a gated stage count fails",
			"BenchmarkRingScaling/stages=7/dense   1   200000000 ns/op\n" +
				"BenchmarkRingScaling/stages=7/matfree   1   100000000 ns/op\n",
			false, []string{"FAIL BenchmarkRingScaling: no stage count >= 15 measured in both modes"}},
		{"no scaling benchmarks fails",
			"BenchmarkHotLoopAllocs-2   5   231000000 ns/op   1000 B/op   1443 allocs/op\n",
			false, []string{"FAIL no stages=N/{dense,matfree} benchmarks on stdin"}},
	}, func(run []Benchmark, out *strings.Builder) bool {
		return ringGate(run, 15, 3.0, out)
	})
}

func TestConverterGate(t *testing.T) {
	runGateCases(t, []gateCase{
		{"mpde faster than transient passes",
			"BenchmarkConverterRipple/buck/mpde-2   1   534322720 ns/op\n" +
				"BenchmarkConverterRipple/buck/transient-2   1   1538650265 ns/op\n",
			true, []string{"ok   BenchmarkConverterRipple/buck: mpde 2.88x transient"}},
		{"speedup below minimum fails",
			"BenchmarkConverterRipple/buck/mpde   1   1600000000 ns/op\n" +
				"BenchmarkConverterRipple/buck/transient   1   1500000000 ns/op\n",
			false, []string{"FAIL BenchmarkConverterRipple/buck: mpde speedup 0.94x < required 1.00x"}},
		{"single mode fails",
			"BenchmarkConverterRipple/buck/mpde   1   534322720 ns/op\n",
			false, []string{"FAIL BenchmarkConverterRipple/buck: need both modes"}},
		{"circuits are gated independently",
			"BenchmarkConverterRipple/buck/mpde   1   500000000 ns/op\n" +
				"BenchmarkConverterRipple/buck/transient   1   1500000000 ns/op\n" +
				"BenchmarkConverterRipple/boost/mpde   1   2000000000 ns/op\n" +
				"BenchmarkConverterRipple/boost/transient   1   1500000000 ns/op\n",
			false, []string{"FAIL BenchmarkConverterRipple/boost: mpde speedup 0.75x", "ok   BenchmarkConverterRipple/buck: mpde 3.00x"}},
		{"no converter benchmarks fails",
			"BenchmarkRingScaling/stages=15/dense   1   3300000000 ns/op\n",
			false, []string{"FAIL no <circuit>/{mpde,transient} benchmarks on stdin"}},
	}, func(run []Benchmark, out *strings.Builder) bool {
		return converterGate(run, 1.0, out)
	})
}
