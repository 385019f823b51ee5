package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
	"exacoll/internal/transport/mem"
)

// The measured collectives: the same variants the baseline captured
// (recursive-doubling allreduce and the k=2 k-nomial bcast at 4 KiB).
func hotpathAllreduce(c comm.Comm, sb, rb []byte) error {
	return core.AllreduceRecDbl(c, sb, rb, datatype.Sum, datatype.Float64)
}

func hotpathBcast(c comm.Comm, buf []byte) error {
	return core.BcastKnomial(c, buf, 0, 2)
}

// The hot-path microbenchmark: reducer kernel throughput and small-message
// collective cost on the mem transport, the paths the scratch-pool and
// specialized-reducer work optimized. Unlike the paper figures this is a
// wall-clock regression harness, not a simulation study: it writes
// BENCH_hotpath.json and gates CI on the machine-independent metrics
// (allocations per op, reducer speedup over a live generic baseline) so a
// slow CI runner cannot flake the gate while a pooling or kernel
// regression still fails it.

// HotpathMetrics are the measured values, keyed to match the committed
// baseline file (results/BENCH_hotpath_baseline.json).
type HotpathMetrics struct {
	ReducerSumF64MBps float64 `json:"reducer_sum_f64_mbps"`
	ReducerSumI32MBps float64 `json:"reducer_sum_i32_mbps"`
	// ReducerGenericF64MBps is a live closure-over-elements sum measured on
	// the same machine, so the specialization speedup is machine-relative.
	ReducerGenericF64MBps float64 `json:"reducer_generic_f64_mbps"`
	AllreduceSmallNsOp    float64 `json:"allreduce_small_ns_op"`
	AllreduceSmallAllocs  float64 `json:"allreduce_small_allocs_op"`
	BcastSmallNsOp        float64 `json:"bcast_small_ns_op"`
	BcastSmallAllocs      float64 `json:"bcast_small_allocs_op"`
	// Transport point-to-point streaming bandwidth (p=2, best-of-N): the
	// mem/shm/tcp/striped-tcp ladder and the multi-port striping evidence.
	MemBW1MiBMBps          float64 `json:"mem_bw_1mib_mbps"`
	ShmBW1MiBMBps          float64 `json:"shm_bw_1mib_mbps"`
	TCPBW256KiBMBps        float64 `json:"tcp_bw_256kib_mbps"`
	TCPBW1MiBMBps          float64 `json:"tcp_bw_1mib_mbps"`
	TCPStripedBW256KiBMBps float64 `json:"tcp_striped_bw_256kib_mbps"`
	TCPStripedBW1MiBMBps   float64 `json:"tcp_striped_bw_1mib_mbps"`
	// Pairwise exchange (p=2, both ranks in comm.SendRecv at once, best-of-N):
	// MB/s per direction, and how the exchanged messages reached their
	// receives — filled in place or staged through the pool — summed over
	// both ranks and every run of the row.
	MemExch1MiBMBps  float64 `json:"mem_exchange_1mib_mbps"`
	MemExch16MiBMBps float64 `json:"mem_exchange_16mib_mbps"`
	ShmExch1MiBMBps  float64 `json:"shm_exchange_1mib_mbps"`
	ShmExch16MiBMBps float64 `json:"shm_exchange_16mib_mbps"`
	MemExchInPlace   float64 `json:"mem_exchange_inplace_msgs"`
	MemExchStaged    float64 `json:"mem_exchange_staged_msgs"`
	ShmExchInPlace   float64 `json:"shm_exchange_inplace_msgs"`
	ShmExchStaged    float64 `json:"shm_exchange_staged_msgs"`
}

// HotpathReport is the machine-readable result (BENCH_hotpath.json).
type HotpathReport struct {
	ID      string         `json:"id"`
	Caption string         `json:"caption"`
	P       int            `json:"p"`
	Metrics HotpathMetrics `json:"metrics"`
	// Baseline echoes the committed pre-optimization numbers when the
	// baseline file was readable.
	Baseline map[string]float64 `json:"baseline,omitempty"`
	// SpeedupVsGeneric is the specialized/generic f64-sum throughput ratio
	// measured live (gated at >= 2x).
	SpeedupVsGeneric float64 `json:"speedup_vs_generic"`
	// StripeCount is the connection count of the striped TCP mesh under
	// test; StripeSpeedup* are striped/single bandwidth ratios measured
	// live on loopback (the 1 MiB point is gated: striping must win once
	// a single connection's copy path saturates a core). NumCPU records
	// the cores available: loopback striping parallelizes the kernel's
	// copy path across cores, so the speedup gates only apply when the
	// machine can express that parallelism (NumCPU >= StripeCount).
	NumCPU              int     `json:"num_cpu"`
	StripeCount         int     `json:"stripe_count"`
	StripeSpeedup256KiB float64 `json:"stripe_speedup_256kib"`
	StripeSpeedup1MiB   float64 `json:"stripe_speedup_1mib"`
	// TunedKAtStripes is the allreduce radix tuning.Recommended derives
	// from the striped mesh's advertised Locality.Ports (gated == stripe
	// count: the port count flows into the selection guidelines).
	TunedKAtStripes int `json:"tuned_k_at_stripes"`
	// Failures lists gate violations; empty means the gate passed.
	Failures []string `json:"failures,omitempty"`
	Pass     bool     `json:"pass"`
}

// hotpathLockstep dispatches one closure per rank per iteration onto
// persistent rank goroutines, so per-iteration costs are the collective's
// own.
type hotpathLockstep struct {
	work []chan func(c comm.Comm) error
	done chan error
}

func newHotpathLockstep(w *mem.World, p int) *hotpathLockstep {
	lw := &hotpathLockstep{
		work: make([]chan func(c comm.Comm) error, p),
		done: make(chan error, p),
	}
	for r := 0; r < p; r++ {
		lw.work[r] = make(chan func(c comm.Comm) error)
		go func(r int) {
			c := w.Comm(r)
			for fn := range lw.work[r] {
				lw.done <- fn(c)
			}
		}(r)
	}
	return lw
}

func (lw *hotpathLockstep) run(fns []func(c comm.Comm) error) error {
	for r := range lw.work {
		lw.work[r] <- fns[r]
	}
	var first error
	for range lw.work {
		if err := <-lw.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (lw *hotpathLockstep) close() {
	for _, ch := range lw.work {
		close(ch)
	}
}

// measureCollective returns (ns/op, allocs/op) for iters whole-communicator
// iterations after a warmup, using global allocation counters as
// testing.AllocsPerRun does.
func measureCollective(lw *hotpathLockstep, fns []func(c comm.Comm) error, iters int) (float64, float64, error) {
	for i := 0; i < 10; i++ {
		if err := lw.run(fns); err != nil {
			return 0, 0, err
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := lw.run(fns); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	nsOp := float64(elapsed.Nanoseconds()) / float64(iters)
	allocsOp := math.Round(float64(after.Mallocs-before.Mallocs) / float64(iters))
	return nsOp, allocsOp, nil
}

// genericSumF64 is the pre-specialization reduction idiom: decode, add,
// re-encode one element at a time through encoding/binary.
func genericSumF64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		d := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(d+s))
	}
}

// reducerRounds is how many interleaved passes measureReducers takes the
// best of.
const reducerRounds = 5

// measureReducers returns each kernel's MB/s over n-byte buffers. The
// kernels are timed interleaved — one pass of iters applications of each,
// reducerRounds times over — and every kernel keeps its best pass, the
// transport ladder's protocol: a scheduler hiccup or a frequency step then
// lands on one pass of one kernel instead of deciding the ratio between
// two kernels timed once each, back to back (which failed the 2x gate one
// -quick run in three).
func measureReducers(n, iters int, fns ...func(dst, src []byte)) []float64 {
	dst := make([]byte, n)
	src := make([]byte, n)
	best := make([]float64, len(fns))
	for round := 0; round < reducerRounds; round++ {
		for k, fn := range fns {
			fn(dst, src) // warmup: this kernel's code and the buffers in cache
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				fn(dst, src)
			}
			if bw := float64(n) * float64(iters) / time.Since(t0).Seconds() / 1e6; bw > best[k] {
				best[k] = bw
			}
		}
	}
	return best
}

// Hotpath runs the hot-path microbenchmarks and applies the regression
// gate against the committed baseline at baselinePath ("" skips the
// baseline comparison but still gates the live ratios).
func (cfg Config) Hotpath(baselinePath string) (*HotpathReport, error) {
	const p, collBytes, reducerBytes = 8, 4 << 10, 1 << 20
	collIters, redIters := 2000, 60
	if cfg.Quick {
		collIters, redIters = 200, 10
	}

	rep := &HotpathReport{
		ID: "hotpath",
		Caption: fmt.Sprintf("hot-path wall-clock microbenchmarks: %d B reducer kernels, %d B collectives on mem, p=%d; transport streaming bandwidth mem/shm/tcp/striped-tcp and pairwise exchange mem/shm",
			reducerBytes, collBytes, p),
		P: p,
	}

	apply := func(t datatype.Type) func(dst, src []byte) {
		return func(dst, src []byte) {
			if err := datatype.Apply(datatype.Sum, t, dst, src); err != nil {
				panic(err)
			}
		}
	}
	red := measureReducers(reducerBytes, redIters, apply(datatype.Float64), apply(datatype.Int32), genericSumF64)
	rep.Metrics.ReducerSumF64MBps, rep.Metrics.ReducerSumI32MBps, rep.Metrics.ReducerGenericF64MBps = red[0], red[1], red[2]
	rep.SpeedupVsGeneric = rep.Metrics.ReducerSumF64MBps / rep.Metrics.ReducerGenericF64MBps

	w := mem.NewWorld(p)
	lw := newHotpathLockstep(w, p)
	defer lw.close()

	arFns := make([]func(c comm.Comm) error, p)
	for r := 0; r < p; r++ {
		sb := make([]byte, collBytes)
		rb := make([]byte, collBytes)
		arFns[r] = func(c comm.Comm) error {
			return hotpathAllreduce(c, sb, rb)
		}
	}
	ns, allocs, err := measureCollective(lw, arFns, collIters)
	if err != nil {
		return nil, fmt.Errorf("hotpath allreduce: %w", err)
	}
	rep.Metrics.AllreduceSmallNsOp = ns
	rep.Metrics.AllreduceSmallAllocs = allocs

	bcFns := make([]func(c comm.Comm) error, p)
	for r := 0; r < p; r++ {
		buf := make([]byte, collBytes)
		bcFns[r] = func(c comm.Comm) error {
			return hotpathBcast(c, buf)
		}
	}
	ns, allocs, err = measureCollective(lw, bcFns, collIters)
	if err != nil {
		return nil, fmt.Errorf("hotpath bcast: %w", err)
	}
	rep.Metrics.BcastSmallNsOp = ns
	rep.Metrics.BcastSmallAllocs = allocs

	if err := cfg.measureTransportBW(rep); err != nil {
		return nil, fmt.Errorf("hotpath transport bw: %w", err)
	}

	rep.Baseline = loadHotpathBaseline(baselinePath)
	rep.Failures = hotpathGate(rep)
	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

// hotpathGate checks the machine-independent regression conditions.
// Wall-clock metrics (ns/op, absolute MB/s) are reported but not gated:
// CI runners vary too much for absolute thresholds to hold.
func hotpathGate(rep *HotpathReport) []string {
	var fails []string
	if rep.SpeedupVsGeneric < 2.0 {
		fails = append(fails, fmt.Sprintf(
			"specialized f64 sum only %.2fx the generic per-element baseline (want >= 2x)",
			rep.SpeedupVsGeneric))
	}
	if base, ok := rep.Baseline["allreduce_small_allocs_op"]; ok {
		// The acceptance bar is a >= 5x reduction; steady state is zero.
		if limit := base / 5; rep.Metrics.AllreduceSmallAllocs > limit {
			fails = append(fails, fmt.Sprintf(
				"small allreduce at %.0f allocs/op, want <= %.0f (baseline %.0f / 5)",
				rep.Metrics.AllreduceSmallAllocs, limit, base))
		}
	}
	// The bcast hot path is allocation-free (stack-backed tree scratch,
	// cached requests): gate it at zero absolutely, not baseline-relative.
	if rep.Metrics.BcastSmallAllocs > 0 {
		fails = append(fails, fmt.Sprintf(
			"small bcast at %.0f allocs/op, want 0 (baseline %.0f)",
			rep.Metrics.BcastSmallAllocs, rep.Baseline["bcast_small_allocs_op"]))
	}
	// Striping gates: once payloads are large enough that a single
	// loopback connection saturates one core's copy path (>= 256 KiB),
	// striping across connections must beat it, decisively at 1 MiB.
	// Ratios of two measurements on the same machine, so CI-speed-proof —
	// but only meaningful when the machine has cores to parallelize the
	// copies across; on fewer cores than stripes the numbers are reported
	// ungated (striping is a multi-port play, and a one-core box has one
	// port's worth of copy engine no matter how many connections exist).
	if rep.StripeCount > 1 && rep.NumCPU >= rep.StripeCount {
		if rep.StripeSpeedup256KiB < 1.0 {
			fails = append(fails, fmt.Sprintf(
				"striped tcp at 256 KiB only %.2fx single-connection (want >= 1x)",
				rep.StripeSpeedup256KiB))
		}
		if rep.StripeSpeedup1MiB < 1.2 {
			fails = append(fails, fmt.Sprintf(
				"striped tcp at 1 MiB only %.2fx single-connection (want >= 1.2x)",
				rep.StripeSpeedup1MiB))
		}
	}
	if rep.StripeCount > 1 && rep.TunedKAtStripes != rep.StripeCount {
		fails = append(fails, fmt.Sprintf(
			"tuned allreduce radix %d does not track the stripe count %d",
			rep.TunedKAtStripes, rep.StripeCount))
	}
	return fails
}

// loadHotpathBaseline reads the committed baseline's metrics map; a
// missing or malformed file just disables the baseline-relative gates.
func loadHotpathBaseline(path string) map[string]float64 {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil
	}
	return doc.Metrics
}
