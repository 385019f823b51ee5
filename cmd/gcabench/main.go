// Command gcabench regenerates the paper's evaluation figures on the
// machine simulator and writes one TSV per grid (plus optional ASCII
// plots to stdout).
//
// Usage:
//
//	gcabench [flags] fig7|fig8|fig9|fig10|fig11|overlap|chaos|hier|recovery|vcoll|model|table1|hotpath|flight|all
//
// Flags:
//
//	-out DIR     output directory for TSVs (default "results")
//	-quick       shrunken sweeps (smoke test)
//	-nodes N     main evaluation node count (default 128)
//	-large N     scale-study node count (default 1024)
//	-ppnnodes N  node count for 8-PPN runs (default 32)
//	-ascii       also render ASCII plots to stdout
//	-cpuprofile F  write a CPU profile (pprof-labeled by collective/alg/k)
//	-memprofile F  write a heap profile at exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"exacoll/internal/bench"
	"exacoll/internal/machine"
	"exacoll/internal/model"
	"exacoll/internal/tuning"
)

func main() {
	out := flag.String("out", "results", "output directory for TSV files")
	quick := flag.Bool("quick", false, "shrunken sweeps for smoke testing")
	nodes := flag.Int("nodes", 128, "main evaluation node count")
	large := flag.Int("large", 1024, "scale-study node count")
	ppnNodes := flag.Int("ppnnodes", 32, "node count for 8-PPN runs")
	placement := flag.String("placement", "contiguous", "rank-to-node placement for multi-PPN grids: contiguous|dispersed")
	ascii := flag.Bool("ascii", false, "render ASCII plots to stdout")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file; pprof labels segment samples by (collective, alg, k)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		tuning.EnableProfLabels(true)
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		tuning.EnableProfLabels(true)
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gcabench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gcabench: memprofile:", err)
			}
		}()
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gcabench [flags] fig7|fig8|fig9|fig10|fig11|overlap|chaos|hier|recovery|vcoll|model|table1|hotpath|flight|all")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Quick = *quick
	cfg.Nodes = *nodes
	cfg.LargeNodes = *large
	cfg.PPNNodes = *ppnNodes
	if *quick {
		q := bench.QuickConfig()
		q.Quick = true
		cfg = q
	}
	switch *placement {
	case "contiguous":
		cfg.Place = machine.PlaceContiguous
	case "dispersed":
		cfg.Place = machine.PlaceDispersed
	default:
		fatal(fmt.Errorf("unknown placement %q (want contiguous or dispersed)", *placement))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	targets := map[string]func() (*bench.Figure, error){
		"fig7":  cfg.Fig7,
		"fig8":  cfg.Fig8,
		"fig9":  cfg.Fig9,
		"fig10": cfg.Fig10,
		"fig11": cfg.Fig11,
		// overlap is not a paper figure: it measures what the nonblocking
		// collectives (internal/nbc) buy a pipelined training step on the
		// wall-clock mem transport.
		"overlap": cfg.Overlap,
		// chaos is not a paper figure either: it tracks the fault-tolerance
		// layer's fault-free overhead (<5% at >=256KiB) and dead-rank
		// recovery latency on the wall-clock mem transport.
		"chaos": cfg.Chaos,
		// hier compares the flat tuned selection against the topology
		// composition engine (internal/topo) at 8 PPN.
		"hier": cfg.Hier,
		// recovery times the elastic lifecycle's transitions over real
		// loopback TCP: grow admission, dead-rank compaction (including
		// failure detection), and rejoin after death.
		"recovery": cfg.Recovery,
		// vcoll extends the radix study to the vector/irregular workload
		// class: latency under uniform, skewed, and one-hot count
		// distributions.
		"vcoll": cfg.VColl,
	}
	order := []string{"fig7", "fig8", "fig9", "fig10", "fig11", "overlap", "chaos", "hier", "recovery", "vcoll"}

	for _, arg := range flag.Args() {
		switch arg {
		case "all":
			emitTable1(*out)
			emitModel(*out, cfg, *ascii)
			for _, id := range order {
				runFigure(targets[id], *out, *ascii, cfg)
			}
		case "table1":
			emitTable1(*out)
		case "model":
			emitModel(*out, cfg, *ascii)
		case "hotpath":
			runHotpath(*out, cfg)
		case "flight":
			runFlight(*out, cfg)
		default:
			f, ok := targets[arg]
			if !ok {
				fatal(fmt.Errorf("unknown target %q", arg))
			}
			runFigure(f, *out, *ascii, cfg)
		}
	}
}

// benchRecord is the machine-readable result of one figure run
// (BENCH_<id>.json): the full grid data plus the sweep configuration and
// wall time, so per-PR perf trajectories can be diffed by tooling instead
// of eyeballing TSVs.
type benchRecord struct {
	ID             string       `json:"id"`
	Caption        string       `json:"caption"`
	Notes          []string     `json:"notes,omitempty"`
	Quick          bool         `json:"quick"`
	Nodes          int          `json:"nodes"`
	LargeNodes     int          `json:"large_nodes"`
	PPNNodes       int          `json:"ppn_nodes"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Grids          []gridRecord `json:"grids"`
}

type gridRecord struct {
	Title  string         `json:"title"`
	XName  string         `json:"x_name"`
	YName  string         `json:"y_name"`
	Xs     []int          `json:"xs"`
	Series []seriesRecord `json:"series"`
}

type seriesRecord struct {
	Name string    `json:"name"`
	Ys   []float64 `json:"ys"`
}

func writeBenchJSON(out string, fig *bench.Figure, cfg bench.Config, elapsed time.Duration) {
	rec := benchRecord{
		ID: fig.ID, Caption: fig.Caption, Notes: fig.Notes,
		Quick: cfg.Quick, Nodes: cfg.Nodes, LargeNodes: cfg.LargeNodes, PPNNodes: cfg.PPNNodes,
		ElapsedSeconds: elapsed.Seconds(),
	}
	for _, g := range fig.Grids {
		gr := gridRecord{Title: g.Title, XName: g.XName, YName: g.YName, Xs: g.Xs}
		for _, s := range g.Series {
			gr.Series = append(gr.Series, seriesRecord{Name: s.Name, Ys: s.Ys})
		}
		rec.Grids = append(rec.Grids, gr)
	}
	path := filepath.Join(out, "BENCH_"+fig.ID+".json")
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("   wrote %s\n", path)
}

// runHotpath runs the hot-path microbenchmarks, writes BENCH_hotpath.json,
// and exits nonzero when the regression gate fails — the CI hook that keeps
// the specialized reducers and scratch pooling from quietly regressing.
func runHotpath(out string, cfg bench.Config) {
	rep, err := cfg.Hotpath(filepath.Join(out, "BENCH_hotpath_baseline.json"))
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(out, "BENCH_hotpath.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("== hotpath: %s\n", rep.Caption)
	fmt.Printf("   reducer sum f64: %.0f MB/s (%.2fx generic %.0f MB/s), sum i32: %.0f MB/s\n",
		rep.Metrics.ReducerSumF64MBps, rep.SpeedupVsGeneric,
		rep.Metrics.ReducerGenericF64MBps, rep.Metrics.ReducerSumI32MBps)
	fmt.Printf("   allreduce 4KiB p=%d: %.0f ns/op, %.0f allocs/op; bcast: %.0f ns/op, %.0f allocs/op\n",
		rep.P, rep.Metrics.AllreduceSmallNsOp, rep.Metrics.AllreduceSmallAllocs,
		rep.Metrics.BcastSmallNsOp, rep.Metrics.BcastSmallAllocs)
	fmt.Printf("   stream 1MiB: mem %.0f, shm %.0f, tcp %.0f, striped tcp %.0f MB/s (%d stripes, %d cpus)\n",
		rep.Metrics.MemBW1MiBMBps, rep.Metrics.ShmBW1MiBMBps,
		rep.Metrics.TCPBW1MiBMBps, rep.Metrics.TCPStripedBW1MiBMBps,
		rep.StripeCount, rep.NumCPU)
	fmt.Printf("   exchange 1MiB / 16MiB per direction: mem %.0f / %.0f, shm %.0f / %.0f MB/s; in place / staged: mem %.0f / %.0f, shm %.0f / %.0f msgs\n",
		rep.Metrics.MemExch1MiBMBps, rep.Metrics.MemExch16MiBMBps,
		rep.Metrics.ShmExch1MiBMBps, rep.Metrics.ShmExch16MiBMBps,
		rep.Metrics.MemExchInPlace, rep.Metrics.MemExchStaged,
		rep.Metrics.ShmExchInPlace, rep.Metrics.ShmExchStaged)
	fmt.Printf("   stripe speedup: %.2fx at 256KiB, %.2fx at 1MiB; tuned allreduce k=%d\n",
		rep.StripeSpeedup256KiB, rep.StripeSpeedup1MiB, rep.TunedKAtStripes)
	fmt.Printf("   wrote %s\n", path)
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "hotpath gate FAILED: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("   gate: PASS")
}

// runFlight runs the flight-recorder overhead gate, writes
// BENCH_flight.json plus the sample dump artifact (flight_sample.json),
// and exits nonzero on gate failure — the CI hook that keeps the
// always-on recorder cheap enough to actually leave always on.
func runFlight(out string, cfg bench.Config) {
	dumpPath := filepath.Join(out, "flight_sample.json")
	rep, err := cfg.FlightOverhead(dumpPath)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(out, "BENCH_flight.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("== flight: %s\n", rep.Caption)
	fmt.Printf("   allreduce 4KiB p=%d: bare %.0f ns/op, recorded %.0f ns/op (serialized on 1 proc)\n",
		rep.P, rep.Metrics.BareNsOp, rep.Metrics.RecordedNsOp)
	fmt.Printf("   per-rank overhead %.0f ns/op -> %.3fx latency, alloc delta %+.0f/op\n",
		rep.Metrics.PerRankOverheadNs, rep.Metrics.OverheadRatio, rep.Metrics.AllocDeltaOp)
	fmt.Printf("   sample dump: %d events across %d ranks -> %s\n",
		rep.Metrics.DumpEvents, rep.P, dumpPath)
	fmt.Printf("   wrote %s\n", path)
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "flight gate FAILED: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("   gate: PASS")
}

func runFigure(f func() (*bench.Figure, error), out string, ascii bool, cfg bench.Config) {
	t0 := time.Now()
	fig, err := f()
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)
	fmt.Printf("== %s: %s\n", fig.ID, fig.Caption)
	for _, note := range fig.Notes {
		fmt.Printf("   note: %s\n", note)
	}
	for i, g := range fig.Grids {
		name := fmt.Sprintf("%s_%c.tsv", fig.ID, 'a'+i)
		if len(fig.Grids) == 1 {
			name = fig.ID + ".tsv"
		}
		path := filepath.Join(out, name)
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := g.WriteTSV(fh); err != nil {
			fatal(err)
		}
		fh.Close()
		fmt.Printf("   wrote %s (%d x %d)\n", path, len(g.Xs), len(g.Series))
		if ascii {
			if err := g.RenderASCII(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
	writeBenchJSON(out, fig, cfg, elapsed)
}

func emitTable1(out string) {
	path := filepath.Join(out, "table1.tsv")
	if err := os.WriteFile(path, []byte(bench.Table1()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("== table1\n%s   wrote %s\n", indent(bench.Table1()), path)
}

// emitModel writes the analytical-model counterparts of Fig. 8: predicted
// latency vs k for each generalized kernel, for side-by-side comparison
// with the simulator's "measured" grids (the §VI-F accuracy discussion).
func emitModel(out string, cfg bench.Config, ascii bool) {
	inter, intra := model.FromSpec(machine.Frontier())
	p := cfg.Nodes
	sizes := []int{8, 1 << 10, 64 << 10, 1 << 20}

	emit := func(id string, ks []int, predict func(n, k int) float64) {
		g := &bench.Grid{
			Title: fmt.Sprintf("%s: analytical model, p=%d, frontier", id, p),
			XName: "k", YName: "latency_us", Xs: ks,
		}
		for _, n := range sizes {
			ys := make([]float64, len(ks))
			for i, k := range ks {
				ys[i] = predict(n, k) * 1e6
			}
			if err := g.AddSeries(fmt.Sprintf("%dB", n), ys); err != nil {
				fatal(err)
			}
		}
		path := filepath.Join(out, id+".tsv")
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := g.WriteTSV(fh); err != nil {
			fatal(err)
		}
		fh.Close()
		fmt.Printf("   wrote %s\n", path)
		if ascii {
			g.RenderASCII(os.Stdout)
		}
	}

	fmt.Println("== model: analytical cost models (eqs. 1-14) as k-sweeps")
	emit("model_knomial_reduce", []int{2, 4, 8, 16, 32, 64, 128},
		func(n, k int) float64 { return inter.ReduceKnomial(n, p, k) })
	emit("model_recmul_allreduce", []int{2, 3, 4, 5, 6, 8, 12, 16},
		func(n, k int) float64 { return inter.AllreduceRecMul(n, p, k) })
	emit("model_kring_bcast", []int{1, 2, 4, 8, 16, 32},
		func(n, k int) float64 { return inter.AllgatherKRing(n, p*8, k, intra) })
}

func indent(s string) string {
	return "   " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n   ") + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcabench:", err)
	os.Exit(1)
}
