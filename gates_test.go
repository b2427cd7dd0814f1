package wampde_test

// Within-run benchmark gates. Each rule here judges numbers that one
// benchmark measured on both sides of its claim in the same run, so no
// stored baseline is involved:
//
//   - ringGate: the ring-VCO dense/matrix-free crossover
//     (BenchmarkRingScaling, BenchmarkQPRingScaling);
//   - converterGate: the MPDE ripple envelope against the brute-force
//     transient (BenchmarkConverterRipple);
//   - allocGate: the allocation budgets of the hot-loop benchmarks.
//
// A benchmark that breaks its rule fails through b.Error, so the exit
// status of `go test -bench` is the verdict. A rule judges only the pairs
// that ran: a filtered run such as
// -bench 'BenchmarkRingScaling/stages=15/matfree' measures one side and
// gives no verdict.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// nsPerOp is b's timed ns/op so far, the figure go test reports for it.
func nsPerOp(b *testing.B) float64 {
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
}

// gate fails b with a rule's report unless the rule held, and logs the
// report otherwise.
func gate(b *testing.B, report []string, ok bool) {
	b.Helper()
	msg := strings.Join(report, "\n")
	switch {
	case !ok:
		b.Error(msg)
	case msg != "":
		b.Log(msg)
	}
}

// The ring crossover claim, per scaling family: at the family's first stage
// count of at least ringGateStages run in both modes, matrix-free must beat
// dense by ringMinSpeedup, and at every larger stage count it must not be
// slower. Smaller rings are reported but not gated.
const (
	ringGateStages = 15
	ringMinSpeedup = 3.0
)

// ringPair is one stage count's dense and matrix-free ns/op; zero marks a
// mode that did not run.
type ringPair struct{ dense, matfree float64 }

// ringTimes is one scaling family's pairs by stage count.
type ringTimes map[int]ringPair

// record stores sub-benchmark b's ns/op as the given mode ("dense" or
// "matfree") at stages.
func (t ringTimes) record(b *testing.B, stages int, mode string) {
	p := t[stages]
	if mode == "dense" {
		p.dense = nsPerOp(b)
	} else {
		p.matfree = nsPerOp(b)
	}
	t[stages] = p
}

// ringGate judges one family: one report line per stage count measured in
// both modes, and whether each holds its bound.
func ringGate(t ringTimes) (report []string, ok bool) {
	var stages []int
	for s, p := range t {
		if p.dense > 0 && p.matfree > 0 {
			stages = append(stages, s)
		}
	}
	sort.Ints(stages)
	ok = true
	crossover := false
	for _, s := range stages {
		ratio := t[s].dense / t[s].matfree
		var line string
		switch {
		case s < ringGateStages:
			line = fmt.Sprintf("ok   stages=%d: ungated, matfree %.2fx dense", s, ratio)
		case !crossover:
			crossover = true
			if ratio < ringMinSpeedup {
				line = fmt.Sprintf("FAIL stages=%d: crossover speedup %.2fx < required %.2fx", s, ratio, ringMinSpeedup)
				ok = false
			} else {
				line = fmt.Sprintf("ok   stages=%d: crossover speedup %.2fx >= %.2fx", s, ratio, ringMinSpeedup)
			}
		case ratio < 1:
			line = fmt.Sprintf("FAIL stages=%d: matfree slower than dense (%.2fx)", s, ratio)
			ok = false
		default:
			line = fmt.Sprintf("ok   stages=%d: matfree %.2fx dense", s, ratio)
		}
		report = append(report, line)
	}
	return report, ok
}

// convMinSpeedup is the converter claim: on every circuit, the MPDE ripple
// envelope must be at least this many times faster than the transient.
const convMinSpeedup = 1.0

// convPair is one circuit's MPDE and transient ns/op; zero marks a mode
// that did not run.
type convPair struct{ mpde, transient float64 }

// convTimes holds the converter benchmark's pairs by circuit.
type convTimes map[string]convPair

// record stores sub-benchmark b's ns/op as the given mode ("mpde" or
// "transient") of circuit.
func (t convTimes) record(b *testing.B, circuit, mode string) {
	p := t[circuit]
	if mode == "mpde" {
		p.mpde = nsPerOp(b)
	} else {
		p.transient = nsPerOp(b)
	}
	t[circuit] = p
}

// converterGate judges every circuit measured in both modes, one report
// line each.
func converterGate(t convTimes) (report []string, ok bool) {
	var circuits []string
	for c, p := range t {
		if p.mpde > 0 && p.transient > 0 {
			circuits = append(circuits, c)
		}
	}
	sort.Strings(circuits)
	ok = true
	for _, c := range circuits {
		ratio := t[c].transient / t[c].mpde
		if ratio < convMinSpeedup {
			report = append(report, fmt.Sprintf("FAIL %s: mpde speedup %.2fx < required %.2fx", c, ratio, convMinSpeedup))
			ok = false
		} else {
			report = append(report, fmt.Sprintf("ok   %s: mpde %.2fx transient", c, ratio))
		}
	}
	return report, ok
}

var memStats runtime.MemStats

// mallocs is the process's cumulative count of heap allocations. Read
// right after b.ResetTimer and again after the timed loop, it counts what
// -benchmem counts for that loop.
func mallocs() uint64 {
	runtime.ReadMemStats(&memStats)
	return memStats.Mallocs
}

// allocGate judges an allocation budget: allocs/op is the timed loop's
// mallocs over its n iterations, truncated as -benchmem reports it.
func allocGate(mallocs, n, budget uint64) error {
	if got := mallocs / n; got > budget {
		return fmt.Errorf("allocs/op %d > budget %d", got, budget)
	}
	return nil
}

// allocBudget fails b when its timed loop, which made mallocs heap
// allocations, broke budget allocs/op.
func allocBudget(b *testing.B, budget, mallocs uint64) {
	b.Helper()
	if err := allocGate(mallocs, uint64(b.N), budget); err != nil {
		b.Error(err)
	}
}

func TestRingGate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		families []ringTimes
		pass     bool
		want     []string
	}{
		// The 15-stage envelope reading of a 2-vCPU VM: below the 3x claim.
		{"crossover below minimum fails",
			[]ringTimes{{15: {dense: 1626e6, matfree: 600e6}}},
			false, []string{"FAIL stages=15: crossover speedup 2.71x < required 3.00x"}},
		// The 15-stage quasiperiodic reading of the same VM.
		{"crossover above minimum passes",
			[]ringTimes{{15: {dense: 34.8e9, matfree: 1e9}}},
			true, []string{"ok   stages=15: crossover speedup 34.80x >= 3.00x"}},
		{"below the gated stage count is reported, not gated",
			[]ringTimes{{3: {dense: 10e6, matfree: 20e6}, 15: {dense: 3.3e9, matfree: 1e9}}},
			true, []string{"ok   stages=3: ungated, matfree 0.50x dense"}},
		{"matrix-free slower than dense above the crossover fails",
			[]ringTimes{{15: {dense: 3.3e9, matfree: 1e9}, 31: {dense: 9e9, matfree: 10e9}}},
			false, []string{"ok   stages=15", "FAIL stages=31: matfree slower than dense (0.90x)"}},
		// The envelope family's first stage count with both modes is 31, so
		// 31 is its crossover and owes the full 3x, although the
		// quasiperiodic family (judged first) crossed over at 15.
		{"families are gated independently",
			[]ringTimes{
				{15: {dense: 34.8e9, matfree: 1e9}, 31: {dense: 60e9, matfree: 2e9}},
				{15: {dense: 3e9}, 31: {dense: 2e9, matfree: 1e9}},
			},
			false, []string{
				"ok   stages=31: matfree 30.00x dense",
				"FAIL stages=31: crossover speedup 2.00x < required 3.00x",
			}},
		{"family without a paired stage count of 15 or more gives no verdict",
			[]ringTimes{{7: {dense: 200e6, matfree: 100e6}}},
			true, []string{"ok   stages=7: ungated, matfree 2.00x dense"}},
		// -bench 'BenchmarkRingScaling/stages=15/matfree' runs one side.
		{"filtered single-mode run gives no verdict",
			[]ringTimes{{15: {matfree: 800e6}}},
			true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var report []string
			pass := true
			for _, f := range tc.families {
				r, ok := ringGate(f)
				report = append(report, r...)
				pass = pass && ok
			}
			checkReport(t, report, pass, tc.pass, tc.want)
		})
	}
}

func TestConverterGate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		times convTimes
		pass  bool
		want  []string
	}{
		{"mpde faster than transient passes",
			convTimes{"buck": {mpde: 534322720, transient: 1538650265}},
			true, []string{"ok   buck: mpde 2.88x transient"}},
		{"speedup below minimum fails",
			convTimes{"buck": {mpde: 1.6e9, transient: 1.5e9}},
			false, []string{"FAIL buck: mpde speedup 0.94x < required 1.00x"}},
		{"single mode gives no verdict",
			convTimes{"buck": {mpde: 534322720}},
			true, nil},
		{"circuits are gated independently",
			convTimes{
				"buck":  {mpde: 500e6, transient: 1.5e9},
				"boost": {mpde: 2e9, transient: 1.5e9},
			},
			false, []string{"FAIL boost: mpde speedup 0.75x", "ok   buck: mpde 3.00x"}},
		{"no pair gives no verdict", convTimes{}, true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, pass := converterGate(tc.times)
			checkReport(t, report, pass, tc.pass, tc.want)
		})
	}
}

// checkReport checks a rule's verdict and that its report holds each of
// want (by substring), or is empty when want is.
func checkReport(t *testing.T, report []string, pass, wantPass bool, want []string) {
	t.Helper()
	out := strings.Join(report, "\n")
	if pass != wantPass {
		t.Fatalf("pass = %v, want %v; report:\n%s", pass, wantPass, out)
	}
	if len(want) == 0 && out != "" {
		t.Fatalf("report = %q, want none", out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("report lacks %q:\n%s", w, out)
		}
	}
}

func TestAllocGate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mallocs uint64
		pass    bool
	}{
		{"below the budget passes", 3 * 1443, true},
		{"exactly the budget passes", 3 * 1445, true},
		{"a remainder below one more per op truncates", 3*1445 + 2, true},
		{"budget plus one fails", 3 * 1446, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := allocGate(tc.mallocs, 3, 1445)
			if (err == nil) != tc.pass {
				t.Fatalf("allocGate(%d, 3, 1445) = %v, want pass %v", tc.mallocs, err, tc.pass)
			}
			if err != nil && err.Error() != "allocs/op 1446 > budget 1445" {
				t.Fatalf("error %q", err)
			}
		})
	}
}
