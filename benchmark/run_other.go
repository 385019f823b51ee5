package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// svcSpans turns a traced service pass into spans: one http.run per step
// with the server-reported time as its only child. The server reports a
// duration, not a start, so the child is centred in its parent; the self
// time of http.run is then exactly the client latency minus the server's.
func svcSpans(pass svcPass, limit int) []span {
	var out []span
	var at int64
	for i := range pass.lat {
		if len(out)+2 > limit {
			break
		}
		lat, srv := pass.lat[i], pass.serverNs[i]
		if srv > lat {
			srv = lat
		}
		out = append(out,
			span{Name: "http.run", Step: i, Parent: -1, Start: at, End: at + lat},
			span{Name: "svc.run", Step: i, Parent: len(out), Start: at + (lat-srv)/2, End: at + (lat-srv)/2 + srv})
		at += lat
	}
	return out
}

// runService measures the service workload; with cfg.trace it also runs
// the in-process rungs that explain the HTTP figure.
func runService(cfg runConfig) (*report, error) {
	bin, err := buildGcaserve() // compile time is no part of set-up
	if err != nil {
		return nil, err
	}
	clients := svcClients()
	rep := newReport(cfg, fmt.Sprintf("gcaserve child on loopback, tenants of %d ranks (mem, pooled worlds)", svcRanks),
		fmt.Sprintf("closed loop, %d HTTP clients (one per CPU, one connection each): open, %d runs, close", clients, svcRunsPerCycle))
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	m := newMetricSet(defs)
	hy := startHygiene()

	var g *gcaserve
	for i := 0; i < cfg.setupReps(); i++ {
		if g != nil {
			g.stop()
		}
		t0 := time.Now()
		if g, err = svcSetup(bin, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.Setups = append(rep.Setups, time.Since(t0).Seconds())
	}
	stopped := false
	stop := func() int {
		if stopped {
			return 0
		}
		stopped = true
		g.stop()
		unreaped := 0
		if g.cmd.ProcessState == nil {
			unreaped++
		}
		if !portReleased(g.addr) {
			unreaped++
		}
		return unreaped
	}
	defer stop()
	pid := g.cmd.Process.Pid

	d, cycles := cfg.duration(), 0
	if cfg.trace {
		d /= 5
	}
	if cfg.smoke {
		cycles = 1
	}
	self0, err := selfCPUSeconds()
	if err != nil {
		return nil, err
	}
	child0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	pass := svcLoop(g, cfg.seed, clients, d, cycles)
	self1, err := selfCPUSeconds()
	if err != nil {
		return nil, err
	}
	child1, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	selfRSS, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	childRSS, err := peakRSSMiB(pid)
	if err != nil {
		return nil, err
	}
	// Every tenant the clients opened must be closed again.
	var stats struct {
		Live int `json:"live"`
	}
	c := newSvcClient(g)
	statErr := c.call("GET", "/v1/stats", &stats)
	c.close()
	rep.Attempted, rep.Failed = pass.attempted+1, pass.failed
	if statErr != nil || stats.Live != 0 {
		rep.Failed++
		rep.Notes = append(rep.Notes, fmt.Sprintf("tenants left open: live=%d err=%v", stats.Live, statErr))
	}

	steps := len(pass.lat)
	lat := summarize(append([]int64(nil), pass.lat...), tailP99)
	rep.Steps, rep.Verified = steps, steps // the server verifies every run's result
	rep.Sizes = map[string]int64{"payload_per_rank_per_step": svcBytes}

	if !cfg.trace {
		rep.Latency = &lat
		if steps > 0 {
			m.set("step_p50_us", lat.P50us)
			m.set("step_tail_us", lat.TailUs)
			m.set("steps_per_s", float64(steps)/pass.wall.Seconds())
			m.set("goodput_MBps", svcBytes/lat.MeanUs)
			m.set("cpu_ms_per_step", ((self1-self0)+(child1-child0))*1e3/float64(steps))
		}
		m.set("peak_rss_mb", selfRSS+childRSS)
		m.set("setup_s", medianF(rep.Setups))
		if lat.TailNote != "" {
			rep.Notes = append(rep.Notes, lat.TailNote)
		}
		unreaped := stop()
		rep.settle(m, hy.finish(unreaped), pass.firstErr)
		return rep, nil
	}

	// Traced run. The pass above is the untraced reference; a second pass
	// of the same length records a span pair per step.
	rep.Untraced = &lat
	traced := svcLoop(g, cfg.seed+1, clients, d, cycles)
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	tl := summarize(append([]int64(nil), traced.lat...), tailP99)
	rep.Traced = &tl
	rep.Spans = svcSpans(traced, 20000)
	rep.SpansKept = len(rep.Spans)
	rep.SpanTotals = selfTimes(rep.Spans)
	medNs := func(v []int64) float64 { return float64(percentile(sortedCopy(v), 0.5)) }
	deltas := make([]int64, len(traced.lat))
	for i := range deltas {
		deltas[i] = traced.lat[i] - traced.serverNs[i]
	}
	m.set("http.delta_us", medNs(deltas)/1e3)
	m.set("svc.open_us", medNs(traced.openNs)/1e3)
	m.set("svc.close_us", medNs(traced.closeNs)/1e3)
	m.set("trace.overhead_ratio", tl.P50us/lat.P50us)
	unreaped := stop()
	firstErr := pass.firstErr
	if firstErr == nil {
		firstErr = traced.firstErr
	}

	// In-process rungs: svc.Tenant.Run against its own sessions, and the
	// wrappers svc stacks (namespace, metrics) on the same 4-rank cell.
	fail := func(err error) (*report, error) {
		rep.settle(m, hy.finish(unreaped), err)
		return rep, nil
	}
	budget, reps := time.Duration(cfg.seconds*0.004*float64(time.Second)), ladderReps
	if cfg.smoke {
		budget, reps = 2*time.Millisecond, 1
	}
	sv, err := measureSvc(budget, reps)
	if err != nil {
		return fail(fmt.Errorf("svc rung: %w", err))
	}
	rep.Svc = &sv
	m.set("svc.run_delta_us", sv.DeltaUs)
	cell := &stepSpec{name: "service_cell", transport: "mem", p: svcRanks, variants: 1,
		cells:          []cellSpec{{kind: cellAllreduce, bytes: svcBytes, span: "gca.allreduce"}},
		ladderWrappers: true}
	inst, err := newInstance(cell, cfg.seed)
	if err != nil {
		return fail(err)
	}
	inst.bind(nil)
	l := &ladder{comms: inst.w.comms, abort: inst.Close, budget: budget, reps: reps}
	rep.Cells, err = l.cells(inst)
	inst.Close()
	if err != nil {
		return fail(fmt.Errorf("ladder: %w", err))
	}
	cl := rep.Cells[0]
	m.set("core.alg_us", cl.CoreUs)
	m.set("tuning.run_delta_us", cl.TuningUs-cl.CoreUs)
	m.set("gca.session_delta_us", cl.SessionUs-cl.TuningUs)
	m.set("comm.subcomm_delta_us", cl.WrapUs["comm.subcomm"]-cl.TuningUs)
	m.set("comm.namespace_delta_us", cl.WrapUs["comm.namespace"]-cl.TuningUs)
	m.set("metrics.wrap_delta_us", cl.WrapUs["metrics.wrap"]-cl.TuningUs)
	m.set("flight.wrap_delta_us", cl.WrapUs["flight.wrap"]-cl.TuningUs)
	m.set("ft.wrap_delta_us", cl.FtUs-cl.SessionUs)
	m.set("trace.ladder_residual_ratio", (sv.TenantRunUs+medNs(deltas)/1e3)/lat.P50us)

	rep.settle(m, hy.finish(unreaped), firstErr)
	return rep, nil
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	slices.Sort(s)
	return s
}

// simTailQ is sim_sweep's fixed tail quantile: a run holds some ten cycles
// of 45 points, which leaves p90 well over ten samples beyond it.
const simTailQ = tailP90

// runSim measures the simulator sweep; with cfg.trace it runs one cycle
// untraced and one with a span per simulated point.
func runSim(cfg runConfig) (*report, error) {
	p := simRanks
	if cfg.smoke {
		p = 16
	}
	rep := newReport(cfg, fmt.Sprintf("simnet Frontier p=%d, %d algorithms x %d sizes x k in %v = %d points per cycle", p, len(simAlgs), len(simSizes), simKs, len(simAlgs)*len(simSizes)*len(simKs)),
		"one point simulated at a time (the simulator runs the p ranks itself), whole cycles only")
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	m := newMetricSet(defs)
	hy := startHygiene()

	// Like the step loops, an untraced run sets the grid up several times
	// and simulates a slice of the run (whole cycles) on each.
	maxCycles := 0
	if cfg.trace || cfg.smoke {
		maxCycles = 1
	}
	reps := cfg.setupReps()
	var g *simGrid
	var pass simPass
	var cpu float64
	for i := 0; i < reps; i++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		ng, err := newSimGrid(cfg.seed, p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// Warm-up: every point of the smallest size once.
		for pi, pt := range ng.points {
			if pt.bytes == simSizes[0] {
				if _, err := ng.run(pi); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		rep.Setups = append(rep.Setups, time.Since(t0).Seconds())
		g = ng
		cpu0, err := selfCPUSeconds()
		if err != nil {
			return nil, err
		}
		slice := simLoop(g, cfg.duration()/time.Duration(reps), maxCycles)
		cpu1, err := selfCPUSeconds()
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		pass.lat = append(pass.lat, slice.lat...)
		pass.wall += slice.wall
		pass.steps += slice.steps
		pass.failed += slice.failed
		pass.messages += slice.messages
		pass.bytes += slice.bytes
		if pass.firstErr == nil {
			pass.firstErr = slice.firstErr
		}
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	var latSum int64
	for _, v := range pass.lat {
		latSum += v
	}
	lat := summarize(append([]int64(nil), pass.lat...), simTailQ)
	rep.Steps, rep.Verified = len(pass.lat), len(pass.lat)
	rep.Attempted, rep.Failed = pass.steps, pass.failed
	rep.Sizes = map[string]int64{"largest_point_bytes_per_rank": int64(simSizes[len(simSizes)-1])}

	if !cfg.trace {
		rep.Latency = &lat
		if len(pass.lat) > 0 {
			m.set("step_p50_us", lat.P50us)
			m.set("step_tail_us", lat.TailUs)
			m.set("steps_per_s", float64(len(pass.lat))/pass.wall.Seconds())
			// Simulated per-rank payload over the wall time of simulating
			// it: the simulator's throughput, not a link's.
			m.set("goodput_MBps", float64(pass.bytes)/(float64(latSum)/1e3))
			m.set("cpu_ms_per_step", cpu*1e3/float64(len(pass.lat)))
		}
		m.set("peak_rss_mb", rss)
		m.set("setup_s", medianF(rep.Setups))
		if lat.TailNote != "" && !cfg.smoke {
			rep.Notes = append(rep.Notes, lat.TailNote)
		}
		rep.settle(m, hy.finish(0), pass.firstErr)
		return rep, nil
	}

	rep.Untraced = &lat
	sum, complete := g.checksumUs()
	if !complete {
		rep.Failed++
		rep.Notes = append(rep.Notes, "checksum incomplete: not every point was simulated")
	}
	m.set("simnet.virtual_us_checksum", sum)
	if latSum > 0 {
		m.set("simnet.events_per_s", float64(pass.messages)/(float64(latSum)/1e9))
		m.set("simnet.wall_ms_per_cell", float64(latSum)/float64(len(pass.lat))/1e6)
	}
	// A second cycle, with a span per simulated point.
	tr := newRankTracer(0, time.Now(), 1, 1000)
	var tracedSum int64
	var tlat []int64
	firstErr := pass.firstErr
	for step, pi := range g.order {
		root := tr.beginStep(step)
		id := tr.begin("simnet.run")
		st, err := g.run(pi)
		tr.end(id)
		tr.end(root)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		tlat = append(tlat, st.wallNs)
		tracedSum += st.wallNs
	}
	tl := summarize(tlat, simTailQ)
	rep.Traced = &tl
	rep.Spans, rep.SpansKept, rep.SpanTotals = tr.spans, len(tr.spans), selfTimes(tr.spans)
	// The grid's points differ a thousandfold, so the two cycles are
	// compared by their sums, not their medians.
	if latSum > 0 {
		m.set("trace.overhead_ratio", float64(tracedSum)/float64(latSum))
	}
	m.set("trace.ladder_residual_ratio", 1) // one layer: the simulator is the whole step
	rep.settle(m, hy.finish(0), firstErr)
	return rep, nil
}
