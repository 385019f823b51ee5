// Command benchmark is the repository's benchmark: seven workloads, the
// same end-to-end metrics on each, and a traced run that attributes a step
// to the layers it crosses. See README.md.
//
//	go run -C benchmark . -workload solver_small_mem -seed 1 -seconds 10 -trace 0
//	go run -C benchmark . -all -out results/baseline.json
//	go run -C benchmark . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
}

// workloadWhy is the one-line rationale of each workload, as in
// BENCHMARK.json.
var workloadWhy = map[string]string{
	"solver_small_mem": "latency-bound: four tiny collectives per step on mem p=8, so matcher, selection, session dispatch and pool do the work",
	"grad_large_shm":   "bandwidth-bound mirror image: one 32 MiB allreduce on shm p=4 (256 MiB in+out, over 4x the 54 MiB LLC); kernel and streaming dominate",
	"mixed_tcp":        "syscall/framing/striping-bound: the same core algorithms over real loopback sockets, p=4, 2 stripes",
	"vector_skew_mem":  "irregular v-collectives with seed-drawn ragged/one-hot/cycled counts; a gain for regular ops that costs v-ops shows here",
	"overlap_hier_mem": "the only workload on nbc and topo: nonblocking bucket allreduces hidden under compute, then a hierarchical allreduce",
	"service_http":     "the full wrapper stack (HTTP+JSON, svc admission, pooled worlds, namespace, metrics) that the step loops bypass",
	"sim_sweep":        "no real transport: a fixed grid of 45 (algorithm, size, k) points on simnet Frontier p=64 isolates the simulator kernel's cost",
}

// runSecondsDefault is BENCHMARK.json's run_seconds.
const runSecondsDefault = 10

// runOne runs one workload once.
func runOne(cfg runConfig) (*report, error) {
	switch cfg.workload {
	case "service_http":
		return runService(cfg)
	case "sim_sweep":
		return runSim(cfg)
	}
	s := stepWorkload(cfg.workload)
	if s == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.trace {
		return runStepTrace(cfg, s)
	}
	return runStepE2E(cfg, s)
}

// resultLine is the last line of standard output, the part the driver
// reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport writes every metric by name with its unit, then what the
// numbers rest on.
func printReport(w io.Writer, r *report) {
	mode := "end-to-end (tracing off)"
	if r.Envelope.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s — %s\n", r.Workload, mode)
	fmt.Fprintf(w, "   why:    %s\n", r.Why)
	fmt.Fprintf(w, "   world:  %s\n", r.World)
	fmt.Fprintf(w, "   loop:   %s\n", r.Loop)
	e := r.Envelope
	fmt.Fprintf(w, "   run:    git %s, %s, num_cpu=%d GOMAXPROCS=%d, seed=%d, seconds=%g, smoke=%v, caches=%v\n",
		e.GitSHA, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Seed, e.Seconds, e.Smoke, e.Caches)
	fmt.Fprintf(w, "   traffic is host loopback / shared memory, not a link; ranks exceed cores, so no scaling efficiency is reported\n")
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Fprintf(w, "   size:   %s = %d bytes\n", k, r.Sizes[k])
	}
	if l := r.Latency; l != nil {
		fmt.Fprintf(w, "   steps:  %d timed (%d verified against the naive reference), tail = p%g, max %.1f us\n",
			l.N, r.Verified, l.TailQ*100, l.MaxUs)
	}
	if r.Untraced != nil && r.Traced != nil {
		fmt.Fprintf(w, "   passes: untraced %d steps p50 %.1f us; traced %d steps p50 %.1f us; %d spans kept\n",
			r.Untraced.N, r.Untraced.P50us, r.Traced.N, r.Traced.P50us, r.SpansKept)
	}
	if len(r.Setups) > 0 {
		fmt.Fprintf(w, "   set-up: %d times, seconds %.4f\n", len(r.Setups), r.Setups)
	}
	defs := endToEnd
	if r.Envelope.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "   %-34s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "   %-34s %16.6f ratio (%d failed of %d attempted, hygiene checks included)\n", "failed_ratio", r.FailedRat, r.Failed, r.Attempted)
	h := r.Hygiene
	fmt.Fprintf(w, "   hygiene: buf_outstanding=%d goroutines_leaked=%d shm_residue=%d child_unreaped=%d\n",
		h.BufOutstanding, h.GoroutinesLeaked, h.ShmResidue, h.ChildUnreaped)
	for _, cl := range r.Cells {
		fmt.Fprintf(w, "   cell %d %-20s %8d B  %s k=%d: core %.2f  tuning %.2f  session %.2f us",
			cl.Cell, cl.Span, cl.Bytes, cl.Alg, cl.K, cl.CoreUs, cl.TuningUs, cl.SessionUs)
		for _, name := range sortedKeys(cl.WrapUs) {
			fmt.Fprintf(w, "  %s %.2f", name, cl.WrapUs[name])
		}
		if cl.FtUs > 0 {
			fmt.Fprintf(w, "  ft-session %.2f", cl.FtUs)
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedKeys(r.SpanTotals) {
		t := r.SpanTotals[name]
		fmt.Fprintf(w, "   span %-22s count %8d  total %12.1f us  self %12.1f us\n", name, t.Count, float64(t.Total)/1e3, float64(t.SelfNs)/1e3)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note:   %s\n", n)
	}
	if r.Error != "" {
		fmt.Fprintf(w, "   ERROR:  %s\n", r.Error)
	}
}

// maxSpansWritten caps the spans a single-workload -out file carries.
const maxSpansWritten = 20000

// writeJSON writes v to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs one workload in a process of its own — this binary again —
// and reads its report back. -all and -selfcheck need the isolation: peak
// RSS is a per-process high-water mark and CPU time a per-process total,
// so workloads sharing a process would report each other's.
func runChild(cfg runConfig) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	out := filepath.Join(buildDir, fmt.Sprintf("report-%d.json", os.Getpid()))
	defer os.Remove(out)
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-out", out}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &r, nil
}

// runAll runs every workload, tracing off and then traced.
func runAll(cfg runConfig, w io.Writer, order []string) ([]*report, error) {
	var reps []*report
	for _, name := range order {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = name, trace
			r, err := runChild(c)
			if err != nil {
				return reps, fmt.Errorf("%s: %w", name, err)
			}
			r.Spans = nil // a file of all workloads carries totals, not spans
			printReport(w, r)
			reps = append(reps, r)
		}
	}
	return reps, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", runSecondsDefault, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny step counts: checks that everything runs, measures nothing")
	all := fs.Bool("all", false, "run every workload, untraced then traced")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end set twice and compare the pairs against the bounds")
	out := fs.String("out", "", "also write the full report(s) as JSON to this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; -h lists the flags")
		return 2
	}
	cfg.trace = *trace == 1

	// The driver allows a run 180 s. Nothing here should come near that;
	// if something hangs, die without a result rather than be killed.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "benchmark: run exceeded 170 s, giving up")
		os.Exit(3)
	})
	defer watchdog.Stop()
	if *all || *selfcheck {
		watchdog.Stop()
	}

	switch {
	case *selfcheck:
		return selfCheck(cfg, stdout, stderr, *out)
	case *all:
		reps, err := runAll(cfg, stdout, workloadNames)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if *out != "" {
			if err := writeJSON(*out, map[string]any{"envelope": newEnvelope(cfg), "runs": reps}); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		for _, r := range reps {
			if !r.Correct {
				return 1
			}
		}
		return 0
	}

	if cfg.workload == "" {
		fmt.Fprintln(stderr, "benchmark: -workload, -all or -selfcheck is required")
		return 2
	}
	r, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printReport(stdout, r)
	if *out != "" {
		if len(r.Spans) > maxSpansWritten {
			r.Spans = r.Spans[:maxSpansWritten]
		}
		if err := writeJSON(*out, r); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// pairCheck is one end-to-end metric of one workload compared across the
// two sets of a self-check.
type pairCheck struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is how much worse the worse of the pair is than the better, as
	// a share of the better; the pair agrees when it is within Bound.
	Worse  float64 `json:"worse_by"`
	Bound  float64 `json:"bound"`
	Agrees bool    `json:"agrees"`
}

// selfCheck runs the end-to-end set twice back to back on this binary (one
// child process per workload), the second time in reverse order, and fails when any metric pair differs by
// more than the metric's bound: the benchmark's own test that it can
// resolve the changes it is meant to judge.
func selfCheck(cfg runConfig, stdout, stderr io.Writer, out string) int {
	if out == "" {
		out = filepath.Join("results", "selfcheck.json")
	}
	reversed := append([]string(nil), workloadNames...)
	slices.Reverse(reversed)
	sets := make([]map[string]*report, 2)
	for i, order := range [][]string{workloadNames, reversed} {
		sets[i] = map[string]*report{}
		for _, name := range order {
			c := cfg
			c.workload, c.trace = name, false
			r, err := runChild(c)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			printReport(stdout, r)
			sets[i][name] = r
		}
	}
	ok := true
	var checks []pairCheck
	for _, name := range workloadNames {
		a, b := sets[0][name], sets[1][name]
		if !a.Correct || !b.Correct {
			ok = false
		}
		for _, d := range endToEnd {
			pc := pairCheck{Workload: name, Metric: d.name, Unit: d.unit, Bound: d.bound,
				First: a.Metrics[d.name].Value, Second: b.Metrics[d.name].Value}
			lo, hi := pc.First, pc.Second
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo > 0 {
				pc.Worse = hi/lo - 1
			}
			pc.Agrees = lo > 0 && pc.Worse <= d.bound
			if !pc.Agrees {
				ok = false
			}
			fmt.Fprintf(stdout, "selfcheck %-18s %-16s %14.4f %14.4f %s  differ %.1f%% (bound %.0f%%) %v\n",
				name, d.name, pc.First, pc.Second, d.unit, pc.Worse*100, d.bound*100, pc.Agrees)
			checks = append(checks, pc)
		}
	}
	if err := writeJSON(out, map[string]any{"envelope": newEnvelope(cfg), "agrees": ok, "pairs": checks}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: selfcheck: the two sets disagree beyond the bounds (or a run was incorrect)")
		return 1
	}
	return 0
}
