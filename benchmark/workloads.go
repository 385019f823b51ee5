package main

// The seven workloads. Each exists because it puts the cost somewhere the
// others do not; README.md has the long form. Every step-loop workload ends
// its step in an allreduce, so steps cannot overlap.

// Fixed tail quantiles (step_tail_us). A workload reports p99 only where
// its timed pass collects some 2000 steps or more at the seed commit;
// otherwise p90. Both leave at least ten samples beyond the quantile at
// the declared run length.
const (
	tailP99 = 0.99
	tailP90 = 0.90
)

var stepWorkloads = []*stepSpec{
	{
		// Latency-bound: four tiny collectives per step, so the matcher,
		// algorithm selection, session dispatch and the buffer pool do
		// nearly all the work and the reducer kernel almost none.
		name: "solver_small_mem", transport: "mem", p: 8, variants: 8,
		cells: []cellSpec{
			{kind: cellAllreduce, bytes: 8, span: "gca.allreduce"},
			{kind: cellAllreduce, bytes: 8, span: "gca.allreduce"},
			{kind: cellBcast, bytes: 4 << 10, span: "gca.bcast"},
			{kind: cellAllreduce, bytes: 4 << 10, span: "gca.allreduce"},
		},
		warmSteps: 2000, verifyEvery: 512, tailQ: tailP99, traceEvery: 64, smokeSteps: 200,
		ladderWrappers: true,
	},
	{
		// Bandwidth-bound, the mirror image: one 32 MiB allreduce per
		// step. Inputs plus outputs across the four ranks are 256 MiB,
		// over four times the 54 MiB last-level cache of the reference
		// host, so the reducer kernel, ring streaming and copies run from
		// memory and per-message cost is noise.
		name: "grad_large_shm", transport: "shm", p: 4, variants: 1,
		cells: []cellSpec{
			{kind: cellAllreduce, bytes: 32 << 20, span: "gca.allreduce"},
		},
		warmSteps: 3, verifyEvery: 16, tailQ: tailP90, traceEvery: 1, smokeSteps: 2,
	},
	{
		// Syscall-, framing- and striping-bound: the same core algorithms
		// over real loopback sockets, two stripes per peer, with one cell
		// above the 64 KiB striping threshold and two below it.
		name: "mixed_tcp", transport: "tcp", p: 4, stripes: 2, variants: 4,
		cells: []cellSpec{
			{kind: cellAllreduce, bytes: 256 << 10, span: "gca.allreduce"},
			{kind: cellBcast, bytes: 64 << 10, span: "gca.bcast"},
			{kind: cellAllreduce, bytes: 64, span: "gca.allreduce"},
		},
		warmSteps: 200, verifyEvery: 128, tailQ: tailP99, traceEvery: 16, smokeSteps: 40,
	},
	{
		// The irregular path: seed-drawn ragged, one-hot and cycled count
		// vectors through pack/unpack and count-matrix agreement, so a
		// gain for regular collectives that costs the v-ops shows here.
		// The closing 8-byte allreduce is the step's synchronising
		// collective (a reduce-scatterv block of zero elements waits for
		// nobody).
		name: "vector_skew_mem", transport: "mem", p: 8, variants: 8,
		cells: []cellSpec{
			{kind: cellAllgatherv, bytes: 256 << 10, span: "gca.allgatherv"},
			{kind: cellAlltoallv, bytes: 64 << 10, span: "gca.alltoallv"},
			{kind: cellReduceScatterv, bytes: 256 << 10, span: "gca.reduce_scatterv"},
			{kind: cellAllreduce, bytes: 8, span: "gca.allreduce"},
		},
		warmSteps: 200, verifyEvery: 128, tailQ: tailP99, traceEvery: 16, smokeSteps: 40,
	},
	{
		// The only workload on nbc and topo: four nonblocking 256 KiB
		// bucket allreduces, each followed by a fixed reduction kernel
		// over a private 1 MiB buffer that the communication may hide
		// under, then one blocking hierarchical (2 nodes x 4) allreduce.
		name: "overlap_hier_mem", transport: "mem", p: 8, ppn: 4, variants: 1,
		cells: []cellSpec{
			{kind: cellIAllreduce, bytes: 256 << 10, span: "nbc.istart"},
			{kind: cellCompute, bytes: 1 << 20, span: "host.compute"},
			{kind: cellIAllreduce, bytes: 256 << 10, span: "nbc.istart"},
			{kind: cellCompute, bytes: 1 << 20, span: "host.compute"},
			{kind: cellIAllreduce, bytes: 256 << 10, span: "nbc.istart"},
			{kind: cellCompute, bytes: 1 << 20, span: "host.compute"},
			{kind: cellIAllreduce, bytes: 256 << 10, span: "nbc.istart"},
			{kind: cellCompute, bytes: 1 << 20, span: "host.compute"},
			{kind: cellWaitAll, span: "nbc.wait"},
			{kind: cellAllreduce, bytes: 64 << 10, span: "topo.allreduce"},
		},
		warmSteps: 20, verifyEvery: 64, tailQ: tailP90, traceEvery: 4, smokeSteps: 10,
	},
}

func stepWorkload(name string) *stepSpec {
	for _, s := range stepWorkloads {
		if s.name == name {
			return s
		}
	}
	return nil
}

// workloadNames lists every workload in BENCHMARK.json order.
var workloadNames = []string{
	"solver_small_mem", "grad_large_shm", "mixed_tcp", "vector_skew_mem",
	"overlap_hier_mem", "service_http", "sim_sweep",
}
