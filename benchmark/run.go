package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"exacoll/internal/buf"
)

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, which a single unlucky rendezvous or page-fault storm cannot
// move.
func (c runConfig) setupReps() int {
	if c.smoke || c.trace {
		return 1
	}
	return 5
}

// report is everything one run of one workload produced. The driver reads
// only the result line derived from it; -out writes all of it.
type report struct {
	Envelope  envelope               `json:"envelope"`
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	World     string                 `json:"world"`
	Loop      string                 `json:"loop"`
	Steps     int                    `json:"timed_steps"`
	Verified  int                    `json:"verified_steps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailedRat float64                `json:"failed_ratio"`
	Correct   bool                   `json:"correct"`
	Error     string                 `json:"error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Latency   *latencySummary        `json:"latency,omitempty"`
	Setups    []float64              `json:"setup_seconds,omitempty"`
	Sizes     map[string]int64       `json:"sizes_bytes,omitempty"`
	Hygiene   hygieneReport          `json:"hygiene"`
	Notes     []string               `json:"notes,omitempty"`

	// Traced runs only.
	Untraced   *latencySummary       `json:"untraced_pass,omitempty"`
	Traced     *latencySummary       `json:"traced_pass,omitempty"`
	Cells      []cellLadder          `json:"cell_ladder,omitempty"`
	Host       *hostRates            `json:"host,omitempty"`
	P2P        *p2pRates             `json:"p2p,omitempty"`
	NBC        *nbcRung              `json:"nbc,omitempty"`
	Topo       *topoRung             `json:"topo,omitempty"`
	Svc        *svcRung              `json:"svc,omitempty"`
	SpanTotals map[string]spanTotals `json:"span_totals,omitempty"`
	SpansKept  int                   `json:"spans_kept,omitempty"`
	Spans      []span                `json:"spans,omitempty"`
}

func newReport(cfg runConfig, world, loop string) *report {
	return &report{Envelope: newEnvelope(cfg), Workload: cfg.workload, Why: workloadWhy[cfg.workload], World: world, Loop: loop}
}

// settle finishes a report: hygiene failures join the count (and, in a
// traced run, the per-layer metrics), the ratio and verdict are derived,
// and the metric set is frozen.
func (r *report) settle(m *metricSet, hy hygieneReport, err error) {
	r.Hygiene = hy
	if r.Envelope.Trace {
		m.set("hygiene.buf_outstanding", float64(hy.BufOutstanding))
		m.set("hygiene.goroutines_leaked", float64(hy.GoroutinesLeaked))
		m.set("hygiene.shm_residue", float64(hy.ShmResidue))
		m.set("hygiene.child_unreaped", float64(hy.ChildUnreaped))
	}
	r.Attempted += hy.Checks
	r.Failed += hy.failures()
	if err != nil {
		r.Error = err.Error()
		if r.Failed == 0 {
			r.Failed = 1
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.FailedRat = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
	r.Metrics = m.values()
}

// ladderReps is how many interleaved repetitions a ladder comparison takes
// its medians over. Noise on the shared host comes in bursts, so many
// short repetitions resolve a layer's delta better than a few long ones.
const ladderReps = 7

// setupStep forms the world, generates the inputs, binds plain sessions
// and warms up: everything a user pays before the first timed step.
func setupStep(s *stepSpec, cfg runConfig) (*instance, error) {
	inst, err := newInstance(s, cfg.seed)
	if err != nil {
		return nil, err
	}
	inst.bind(nil)
	warm := s.warmSteps
	if cfg.smoke && warm > s.smokeSteps {
		warm = s.smokeSteps
	}
	res := runLoop(inst.steppers(), inst.Close, loopOpts{maxSteps: warm, verifyEvery: warm})
	if res.err != nil {
		inst.Close()
		return nil, fmt.Errorf("warm-up: %w", res.err)
	}
	return inst, nil
}

// timedOpts bounds the timed pass: the run length, or in smoke mode a few
// steps.
func timedOpts(s *stepSpec, cfg runConfig, d time.Duration) loopOpts {
	o := loopOpts{duration: d, verifyEvery: s.verifyEvery}
	if cfg.smoke {
		o = loopOpts{maxSteps: s.smokeSteps, verifyEvery: s.smokeSteps / 2}
	}
	return o
}

func stepWorldName(s *stepSpec) string {
	w := fmt.Sprintf("%s p=%d (goroutine ranks, GOMAXPROCS=%d)", s.transport, s.p, runtime.GOMAXPROCS(0))
	if s.stripes > 0 {
		w += fmt.Sprintf(" stripes=%d", s.stripes)
	}
	if s.ppn > 0 {
		w += fmt.Sprintf(" ppn=%d", s.ppn)
	}
	return w
}

// runStepE2E measures a step-loop workload end to end, tracing off.
func runStepE2E(cfg runConfig, s *stepSpec) (*report, error) {
	rep := newReport(cfg, stepWorldName(s), fmt.Sprintf("closed loop, %d ranks each issuing its next step when the last returned", s.p))
	m := newMetricSet(endToEnd)
	hy := startHygiene()

	// A run forms the world several times and times a slice of the run on
	// each: what differs from one formation to the next (which CPU a
	// socket's flow hashes to, where buffers land) then averages out
	// inside a run instead of between runs, and setup_s gets its median.
	reps := cfg.setupReps()
	var res loopResult
	var cpu float64
	var payload, buffers int
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		inst, err := setupStep(s, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.Setups = append(rep.Setups, time.Since(t0).Seconds())
		payload, buffers = inst.payloadBytes, inst.bufferBytes
		cpu0, err := selfCPUSeconds()
		if err != nil {
			inst.Close()
			return nil, err
		}
		slice := runLoop(inst.steppers(), inst.Close, timedOpts(s, cfg, cfg.duration()/time.Duration(reps)))
		cpu1, err := selfCPUSeconds()
		inst.Close()
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		res.lat = append(res.lat, slice.lat...)
		res.wall += slice.wall
		res.steps += slice.steps
		res.verified += slice.verified
		res.failed += slice.failed
		if res.err == nil {
			res.err = slice.err
		}
		inst = nil
		runtime.GC() // a torn-down world must not count towards the next one's peak
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}

	lat := summarize(res.lat, s.tailQ)
	rep.Latency = &lat
	rep.Steps, rep.Verified = res.steps, res.verified
	rep.Attempted, rep.Failed = res.steps+res.failed, res.failed
	rep.Sizes = map[string]int64{
		"payload_per_rank_per_step":     int64(payload),
		"buffers_in_plus_out_all_ranks": int64(buffers),
		"last_level_cache":              llcBytes(),
	}
	if res.steps > 0 {
		m.set("step_p50_us", lat.P50us)
		m.set("step_tail_us", lat.TailUs)
		m.set("steps_per_s", float64(res.steps)/res.wall.Seconds())
		m.set("goodput_MBps", float64(payload)/lat.MeanUs)
		m.set("cpu_ms_per_step", cpu*1e3/float64(res.steps))
	}
	m.set("peak_rss_mb", rss)
	m.set("setup_s", medianF(rep.Setups))
	if lat.TailNote != "" {
		rep.Notes = append(rep.Notes, lat.TailNote)
	}
	rep.settle(m, hy.finish(0), res.err)
	return rep, nil
}

// runStepTrace is the traced run of a step-loop workload: a short untraced
// pass, the same number of steps traced, then the ladder on the same
// world. It reports per-layer metrics only; end-to-end figures never come
// from here.
func runStepTrace(cfg runConfig, s *stepSpec) (*report, error) {
	rep := newReport(cfg, stepWorldName(s), "traced: 1/5 of the run untraced, as many steps traced, then the ladder")
	m := newMetricSet(perLayer)
	hy := startHygiene()
	inst, err := setupStep(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.Close()
	fail := func(err error) (*report, error) {
		inst.Close()
		rep.settle(m, hy.finish(0), err)
		return rep, nil
	}

	// Pass 1, untraced: the reference for the tracing overhead, and the
	// allocation count of the stack as users run it.
	var untr loopResult
	mallocs := mallocsDuring(func() {
		untr = runLoop(inst.steppers(), inst.Close, timedOpts(s, cfg, cfg.duration()/5))
	})
	if untr.err != nil {
		return fail(fmt.Errorf("untraced pass: %w", untr.err))
	}
	// Pass 2, traced, over whole cycles of the seed's variants so that
	// per-step message counts are exact ratios.
	steps := untr.steps / s.variants * s.variants
	if steps < s.variants {
		steps = s.variants
	}
	base := time.Now()
	trs := make([]*rankTracer, s.p)
	for r := range trs {
		trs[r] = newRankTracer(r, base, s.traceEvery, 60000/s.p)
	}
	inst.bind(trs)
	verifyEvery := s.verifyEvery
	if cfg.smoke {
		verifyEvery = steps
	}
	traced := runLoop(inst.steppers(), inst.Close, loopOpts{maxSteps: steps, verifyEvery: verifyEvery})
	scs := inst.scs
	inst.bind(nil)
	if traced.err != nil {
		return fail(fmt.Errorf("traced pass: %w", traced.err))
	}
	ul, tl := summarize(untr.lat, s.tailQ), summarize(traced.lat, s.tailQ)
	rep.Untraced, rep.Traced = &ul, &tl
	rep.Steps = traced.steps
	rep.Attempted = untr.steps + untr.failed + traced.steps + traced.failed
	rep.Failed = untr.failed + traced.failed

	var cnt commCounters
	for _, sc := range scs {
		c := sc.counters()
		cnt.msgs += c.msgs
		cnt.bytes += c.bytes
		cnt.postNs += c.postNs
		cnt.waitNs += c.waitNs
		cnt.errs += c.errs
		if c.maxMsg > cnt.maxMsg {
			cnt.maxMsg = c.maxMsg
		}
	}
	nSteps, nRanks := float64(traced.steps), float64(s.p)
	m.set("transport.msgs_per_step", float64(cnt.msgs)/nSteps)
	m.set("transport.bytes_per_step", float64(cnt.bytes)/nSteps)
	m.set("transport.post_us_per_step", float64(cnt.postNs)/nRanks/nSteps/1e3)
	m.set("transport.wait_us_per_step", float64(cnt.waitNs)/nRanks/nSteps/1e3)
	m.set("transport.errors", float64(cnt.errs))
	m.set("trace.overhead_ratio", tl.P50us/ul.P50us)
	m.set("buf.mallocs_per_step", float64(mallocs)/float64(untr.steps))
	m.set("buf.outstanding_after", float64(buf.Stats().Outstanding()))
	m.set("datatype.reduced_bytes_per_step", float64(inst.reducedBytes))

	// Span arithmetic: per rank and kept step, the self time of every span
	// above the transport is the stack's own work.
	rep.SpanTotals = map[string]spanTotals{}
	for _, tr := range trs {
		mergeTotals(rep.SpanTotals, selfTimes(tr.spans))
		rep.SpansKept += len(tr.spans)
		rep.Spans = append(rep.Spans, tr.spans...)
	}
	keptSteps := float64(rep.SpanTotals[spanStep].Count) // rank-steps
	if keptSteps > 0 {
		var self, istart, wait int64
		for name, t := range rep.SpanTotals {
			switch name {
			case spanStep, spanTransportPost, spanTransportWait, "host.compute":
			default:
				self += t.SelfNs
			}
			switch name {
			case "nbc.istart":
				istart += t.Total
			case "nbc.wait":
				wait += t.Total
			}
		}
		m.set("core.self_us", float64(self)/keptSteps/1e3)
		m.set("nbc.istart_us", float64(istart)/keptSteps/1e3)
		m.set("nbc.wait_us", float64(wait)/keptSteps/1e3)
	}

	// The ladder. Its per-measurement budget spreads what is left of the
	// run over the measurements this workload asks for.
	measurements := len(ladderCells(s)) * strataPerCell(s)
	if s.ppn > 0 {
		measurements += 6 // the nbc rung's four strata and the topo rung's two
	}
	l := &ladder{comms: inst.w.comms, abort: inst.Close, reps: ladderReps}
	l.budget = time.Duration(cfg.seconds * 0.4 / float64(measurements*l.reps) * float64(time.Second))
	if cfg.smoke {
		l.reps, l.budget = 1, 2*time.Millisecond
	}
	ladderUs := 0.0 // the top stratum of every cell, per step
	if rep.Cells, err = l.cells(inst); err != nil {
		return fail(fmt.Errorf("ladder: %w", err))
	}
	var coreUs, tuneDelta, sessDelta, packUs float64
	wrapDelta := map[string]float64{}
	var ftDelta float64
	for _, cl := range rep.Cells {
		n := float64(multiplicity(s, cl))
		coreUs += n * cl.CoreUs
		tuneDelta += n * (cl.TuningUs - cl.CoreUs)
		sessDelta += n * (cl.SessionUs - cl.TuningUs)
		ladderUs += n * cl.SessionUs
		if s.cells[cl.Cell].kind == cellAlltoallv {
			packUs = cl.SessionUs - cl.TuningUs
		}
		for name, us := range cl.WrapUs {
			wrapDelta[name] += n * (us - cl.TuningUs)
		}
		if cl.FtUs > 0 {
			ftDelta += n * (cl.FtUs - cl.SessionUs)
		}
	}
	m.set("core.alg_us", coreUs)
	m.set("tuning.run_delta_us", tuneDelta)
	m.set("gca.session_delta_us", sessDelta)
	m.set("gca.vcoll_pack_us", packUs)
	m.set("tuning.select_ns", selectNs(s))
	if s.ladderWrappers {
		m.set("comm.subcomm_delta_us", wrapDelta["comm.subcomm"])
		m.set("comm.namespace_delta_us", wrapDelta["comm.namespace"])
		m.set("metrics.wrap_delta_us", wrapDelta["metrics.wrap"])
		m.set("flight.wrap_delta_us", wrapDelta["flight.wrap"])
		m.set("ft.wrap_delta_us", ftDelta)
	}
	if s.ppn > 0 {
		nb, err := l.measureNBC(inst)
		if err != nil {
			return fail(fmt.Errorf("nbc rung: %w", err))
		}
		tp, err := l.measureTopo(inst)
		if err != nil {
			return fail(fmt.Errorf("topo rung: %w", err))
		}
		rep.NBC, rep.Topo = &nb, &tp
		m.set("nbc.overlap_ratio", nb.OverlapRatio)
		m.set("nbc.vs_blocking_ratio", nb.VsBlockingRate)
		m.set("topo.hier_vs_flat_ratio", tp.Ratio)
		m.set("topo.intra_msgs", tp.IntraMsgs)
		m.set("topo.inter_msgs", tp.InterMsgs)
		ladderUs = nb.OverlappedUs + tp.HierUs
	}
	m.set("trace.ladder_residual_ratio", ladderUs/ul.P50us)

	host, err := measureHost(cfg.smoke)
	if err != nil {
		return fail(fmt.Errorf("host rates: %w", err))
	}
	p2p, err := measureP2P(inst.w, int(cnt.maxMsg))
	if err != nil {
		return fail(fmt.Errorf("p2p rung: %w", err))
	}
	rep.Host, rep.P2P = &host, &p2p
	m.set("host.memcpy_MBps", host.MemcpyMBps)
	m.set("datatype.sum_f64_MBps", host.SumF64MBps)
	m.set("datatype.roofline_ratio", host.Roofline)
	m.set("transport.pingpong_us", p2p.PingPongUs)
	m.set("transport.stream_MBps", p2p.StreamMBps)
	m.set("transport.mem_stream_MBps", p2p.MemStreamMBps)
	// Computed shares of the step, by machine accounting: the ranks
	// outnumber the cores, so their work queues for the same two CPUs and
	// what bounds the step is the world's total bytes over the host's
	// aggregate rates — every operand byte at the all-CPU kernel rate,
	// every sent byte at the rate one streaming pair (which occupies both
	// CPUs) achieves — against the untraced median step.
	m.set("datatype.step_share", float64(inst.reducedBytes)/host.SumF64MBps/ul.P50us)
	m.set("transport.stream_share", float64(cnt.bytes)/nSteps/p2p.StreamMBps/ul.P50us)
	m.set("buf.get_put_ns", bufGetPutNs(min(int(cnt.maxMsg), 1<<20)))
	if s.transport != "mem" { // mem has a matcher of its own
		exp, unexp, err := matchNs()
		if err != nil {
			return fail(fmt.Errorf("match rung: %w", err))
		}
		m.set("match.post_deliver_ns", exp)
		m.set("match.unexpected_path_ns", unexp)
	}

	inst.Close()
	rep.settle(m, hy.finish(0), nil)
	return rep, nil
}
