// Command bench is the repository's seeded benchmark. It runs four
// workloads — the paper's §5 air VCO against its 1000-points-per-cycle
// transient, a 15-stage ring VCO on the matrix-free path against dense LU, a
// duty-modulated buck converter's ripple envelope against its brute-force
// transient, and a served mix of hot (cached) and cold (solving) requests —
// and reports the same end-to-end metrics for each. With -trace it instead
// wraps the values it passes into the layers, records spans, and reports the
// per-layer metrics. Every output is checked; a failed check marks the run
// incorrect and the exit status non-zero.
//
//	go run . -workload vco-air -seed 1 -seconds 10
//	go run . -workload serve-mix -trace
//	go run . -workload buck-ripple -json runs.jsonl
//	go run . -compare a.jsonl b.jsonl
//
// Every metric prints as "workload metric value unit (n, q1, q3)"; the last
// line of standard output is one JSON object with the run's verdict and the
// metrics BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type spec struct{ name, unit string }

// endToEnd is what every workload reports in an untraced run. Each workload
// gives solve_ms and baseline_ms its own meaning (README.md has the table):
// the multi-time solve or cold request, and what it is compared against.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"solve_ms", "ms"},
	{"baseline_ms", "ms"},
	{"alloc_mb", "MB"},
}

// perLayer is what every workload reports in a traced run; a layer the
// workload does not reach reports 0. Layer times that only some workloads
// have are printed but kept out of this list (see README.md).
var perLayer = []spec{
	{"circuit.q_calls", "count"},
	{"circuit.f_calls", "count"},
	{"circuit.jac_calls", "count"},
	{"circuit.eval_share", "ratio"},
	{"core.steps", "count"},
	{"core.rejected", "count"},
	{"core.step_halvings", "count"},
	{"core.rescues", "count"},
	{"newton.iters", "count"},
	{"newton.iters_per_step", "ratio"},
	{"la.factorizations", "count"},
	{"la.chord_reuse_ratio", "ratio"},
	{"la.factor_us", "us"},
	{"la.solve_us", "us"},
	{"krylov.solves", "count"},
	{"krylov.matvecs", "count"},
	{"krylov.matvecs_per_solve", "ratio"},
	{"krylov.recycle_hits", "count"},
	{"krylov.stagnations", "count"},
	{"fourier.fft_us", "us"},
	{"shooting.ic_eval_calls", "count"},
	{"transient.steps", "count"},
	{"transient.evals_per_step", "ratio"},
	{"transient.eval_share", "ratio"},
	{"par.workers", "count"},
	{"par.speedup", "ratio"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.throughput_rps", "1/s"},
	{"trace.overhead", "ratio"},
	{"check.phase_err_cycles", "cycles"},
	{"check.omega_rel_err", "ratio"},
	{"check.ripple_err_v", "V"},
}

type workload struct {
	name string
	run  func(r *runner) error
}

// workloads are run in this order; README.md says why each was chosen.
var workloads = []workload{
	{"vco-air", runVCOAir},
	{"ring15-matfree", runRing15},
	{"buck-ripple", runBuckRipple},
	{"serve-mix", runServeMix},
}

// metric is one named measurement: its samples, summarized by their median.
type metric struct {
	name, unit string
	vals       []float64
	note       string // "computed" for values derived rather than timed
}

// runner carries one workload's run: its settings, its metrics, and the
// tally of operations attempted and failed (failed checks included).
type runner struct {
	workload  string
	seed      int64
	seconds   float64
	small     bool
	tr        *tracer // nil in an untraced run
	metrics   []*metric
	attempted int
	failed    int
}

func (r *runner) record(name, unit string, vals ...float64) *metric {
	for _, m := range r.metrics {
		if m.name == name {
			m.vals = append(m.vals, vals...)
			return m
		}
	}
	m := &metric{name: name, unit: unit, vals: vals}
	r.metrics = append(r.metrics, m)
	return m
}

func (r *runner) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name && len(m.vals) > 0 {
			return median(m.vals), true
		}
	}
	return 0, false
}

// op counts one attempted operation, and a failure when err is non-nil.
func (r *runner) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", r.workload, what, err)
		return false
	}
	return true
}

// check records an output check as a per-layer metric and counts it as an
// operation that fails unless v ≤ limit.
func (r *runner) check(name, unit string, v, limit float64) {
	r.record(name, unit, v)
	var err error
	if !(v <= limit) {
		err = fmt.Errorf("%s = %g exceeds %g", name, v, limit)
	}
	r.op("check", err)
}

// setups runs a workload's set-up several times so setup_s is a median:
// three times, and while it is cheap up to 200 times within a second (or the
// measurement window, if shorter). The state the last one leaves behind
// carries the run.
func (r *runner) setups(fn func() error) error {
	var ts []float64
	budget := time.Duration(min(1, r.seconds) * float64(time.Second))
	start := time.Now()
	for len(ts) < 3 || (len(ts) < 200 && time.Since(start) < budget) {
		t := time.Now()
		if err := fn(); !r.op("setup", err) {
			return err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	r.record("setup_s", "s", ts...)
	return nil
}

// result is the verdict line the benchmark ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -json appends it, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, in order)")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 10, "measurement window per workload, seconds")
	trace := fs.Bool("trace", false, "wrap the layers, record spans and report the per-layer metrics")
	small := fs.Bool("small", false, "shrink every problem for a quick smoke run")
	jsonOut := fs.String("json", "", "append each run's record to this file (JSON lines)")
	spansOut := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>.json)")
	compareMode := fs.Bool("compare", false, "compare the run records in two -json files: -compare A B")
	specPath := fs.String("spec", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
	if err := fs.Parse(driverArgs(args)); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			return 2
		}
		ok, err := compare(stdout, *specPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	todo := workloads
	if *name != "" {
		todo = nil
		for _, w := range workloads {
			if w.name == *name {
				todo = []workload{w}
			}
		}
		if todo == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	want := endToEnd
	if *trace {
		want = perLayer
	}
	final := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range todo {
		r := &runner{workload: w.name, seed: *seed, seconds: *seconds, small: *small}
		if *trace {
			r.tr = newTracer()
		}
		err := w.run(r)
		if err != nil && r.failed == 0 {
			r.op("run", err)
		}
		if r.tr != nil {
			path := *spansOut
			if path == "" {
				path = fmt.Sprintf(".bench_build/spans-%s.json", w.name)
			}
			r.op("write spans", r.tr.write(path, w.name))
		}
		res := r.report(stdout, want, !*trace)
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, record{w.name, *seed, *trace, res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				res.Correct = false
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

// driverArgs accepts "--trace 0" and "--trace 1" as well as the -trace
// boolean flag form.
func driverArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// report prints every metric the run recorded, then the listed metrics the
// workload never reached as 0 — a failure when they are required — and
// returns the run's verdict with the listed metrics.
func (r *runner) report(w io.Writer, want []spec, required bool) result {
	for _, m := range r.metrics {
		printMetric(w, r.workload, m)
	}
	res := result{Metrics: map[string]jsonMetric{}}
	for _, s := range want {
		v, ok := r.value(s.name)
		switch {
		case !ok:
			if required {
				r.op("report", fmt.Errorf("metric %s was not measured", s.name))
			}
			printMetric(w, r.workload, &metric{name: s.name, unit: s.unit})
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.op("report", fmt.Errorf("metric %s is %v", s.name, v))
			v = 0
		}
		res.Metrics[s.name] = jsonMetric{v, s.unit}
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	return res
}

func printMetric(w io.Writer, workload string, m *metric) {
	v, q1, q3 := 0.0, 0.0, 0.0
	if len(m.vals) > 0 {
		v = median(m.vals)
		q1, q3 = quartiles(m.vals)
	}
	extra := ""
	if m.note != "" {
		extra = ", " + m.note
	}
	fmt.Fprintf(w, "%s %s %.6g %s (n=%d, q1=%.6g, q3=%.6g%s)\n", workload, m.name, v, m.unit, len(m.vals), q1, q3, extra)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive method
// (Python's statistics.quantiles default), or the value itself for n = 1.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) by nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compare reads two -json record files and checks, for every workload and
// end-to-end metric, that B's median over its untraced runs is not worse
// than A's by more than the bound BENCHMARK.json gives. It prints one row per
// pair and reports whether all of them held.
func compare(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var bench struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range bench.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%s %s missing (A n=%d, B n=%d) FAIL\n", wl, m.Name, len(va), len(vb))
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%s %s A=%.6g (n=%d) B=%.6g (n=%d) worse=%+.1f%% bound=%.0f%% %s\n",
				wl, m.Name, ma, len(va), mb, len(vb), 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// readRecords groups the untraced, correct runs of a record file by workload
// and metric; an incorrect run is an error, since its timings mean nothing.
func readRecords(path string) (map[string]map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s (seed %d) failed its checks", path, i+1, rec.Workload, rec.Seed)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for k, v := range rec.Metrics {
			out[rec.Workload][k] = append(out[rec.Workload][k], v.Value)
		}
	}
	return out, nil
}
