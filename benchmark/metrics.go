package main

// metricDef declares one metric exactly as BENCHMARK.json lists it; the
// unit test in benchmark_json_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd are the metrics a user of the library or the service sees. They
// carry the same names on every workload and are always measured with
// tracing off. failed_ratio is not among them because a driver metric may
// never be 0: failures travel in the result line's attempted/failed
// counts, and every report prints failed_ratio beside them.
var endToEnd = []metricDef{
	{"step_p50_us", "us", "lower", 0.20},
	{"step_tail_us", "us", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.12},
	{"goodput_MBps", "MB/s", "higher", 0.15},
	{"cpu_ms_per_step", "ms", "lower", 0.12},
	{"peak_rss_mb", "MiB", "lower", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, named after the
// module they measure. A metric that does not apply to a workload (nbc.*
// anywhere but overlap_hier_mem, say) is reported as 0 there.
var perLayer = []metricDef{
	{"host.memcpy_MBps", "MB/s", "higher", 0},
	{"datatype.sum_f64_MBps", "MB/s", "higher", 0},
	{"datatype.roofline_ratio", "ratio", "higher", 0},
	{"datatype.reduced_bytes_per_step", "bytes", "lower", 0},
	{"datatype.step_share", "ratio", "lower", 0},
	{"buf.get_put_ns", "ns", "lower", 0},
	{"buf.mallocs_per_step", "count", "lower", 0},
	{"buf.outstanding_after", "count", "lower", 0},
	{"transport.pingpong_us", "us", "lower", 0},
	{"transport.stream_MBps", "MB/s", "higher", 0},
	{"transport.mem_stream_MBps", "MB/s", "higher", 0},
	{"transport.stream_share", "ratio", "lower", 0},
	{"transport.msgs_per_step", "count", "lower", 0},
	{"transport.bytes_per_step", "bytes", "lower", 0},
	{"transport.post_us_per_step", "us", "lower", 0},
	{"transport.wait_us_per_step", "us", "lower", 0},
	{"transport.errors", "count", "lower", 0},
	{"match.post_deliver_ns", "ns", "lower", 0},
	{"match.unexpected_path_ns", "ns", "lower", 0},
	{"core.alg_us", "us", "lower", 0},
	{"core.self_us", "us", "lower", 0},
	{"tuning.select_ns", "ns", "lower", 0},
	{"tuning.run_delta_us", "us", "lower", 0},
	{"comm.subcomm_delta_us", "us", "lower", 0},
	{"comm.namespace_delta_us", "us", "lower", 0},
	{"metrics.wrap_delta_us", "us", "lower", 0},
	{"flight.wrap_delta_us", "us", "lower", 0},
	{"ft.wrap_delta_us", "us", "lower", 0},
	{"gca.session_delta_us", "us", "lower", 0},
	{"gca.vcoll_pack_us", "us", "lower", 0},
	{"nbc.istart_us", "us", "lower", 0},
	{"nbc.wait_us", "us", "lower", 0},
	{"nbc.overlap_ratio", "ratio", "higher", 0},
	{"nbc.vs_blocking_ratio", "ratio", "lower", 0},
	{"topo.hier_vs_flat_ratio", "ratio", "lower", 0},
	{"topo.intra_msgs", "count", "lower", 0},
	{"topo.inter_msgs", "count", "lower", 0},
	{"svc.open_us", "us", "lower", 0},
	{"svc.close_us", "us", "lower", 0},
	{"svc.run_delta_us", "us", "lower", 0},
	{"http.delta_us", "us", "lower", 0},
	{"simnet.events_per_s", "1/s", "higher", 0},
	{"simnet.wall_ms_per_cell", "ms", "lower", 0},
	{"simnet.virtual_us_checksum", "us", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.ladder_residual_ratio", "ratio", "lower", 0},
	{"hygiene.buf_outstanding", "count", "lower", 0},
	{"hygiene.goroutines_leaked", "count", "lower", 0},
	{"hygiene.shm_residue", "count", "lower", 0},
	{"hygiene.child_unreaped", "count", "lower", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for a declared list; anything not set stays 0.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]float64{}}
}

// set records a value; an undeclared name is a bug in the benchmark.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

func (m *metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}
