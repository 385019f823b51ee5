package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"exacoll/gca"
	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
	"exacoll/internal/flight"
	"exacoll/internal/machine"
	"exacoll/internal/metrics"
	"exacoll/internal/tuning"
)

// The ladder re-times a workload's cells at successive strata of the
// stack, outside in, on the workload's own world: the registry algorithm
// on the bare transport, the tuned selection around it, each comm.Comm
// wrapper inserted singly, and the Session on top. Every stratum is an
// OSU-style loop over all ranks; strata that are compared are measured in
// interleaved repetitions and the medians subtracted, so drift on the
// shared host cancels instead of landing in one layer's delta.

// rankBody builds one rank's timed closure.
type rankBody func(rank int, c comm.Comm) (func() error, error)

// timeRanks runs iters iterations of every rank's closure between two
// barriers and returns the slowest rank's mean time per iteration in µs.
// abort is called when a rank fails, to release the others.
func timeRanks(comms []comm.Comm, abort func(), iters int, mk rankBody) (float64, error) {
	p := len(comms)
	elapsed := make([]time.Duration, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := comms[r]
			fail := func(err error) {
				errs[r] = err
				abort()
			}
			fn, err := mk(r, c)
			if err != nil {
				fail(err)
				return
			}
			if err := fn(); err != nil { // one untimed iteration settles pools and paths
				fail(err)
				return
			}
			if err := core.BarrierDissemination(c); err != nil {
				fail(err)
				return
			}
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err := fn(); err != nil {
					fail(err)
					return
				}
			}
			elapsed[r] = time.Since(t0)
		}(r)
	}
	wg.Wait()
	var worst time.Duration
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			return 0, fmt.Errorf("rank %d: %w", r, errs[r])
		}
		if elapsed[r] > worst {
			worst = elapsed[r]
		}
	}
	return float64(worst) / float64(iters) / 1e3, nil
}

// stratum is one named way of running a cell.
type stratum struct {
	name  string
	wrap  func(c comm.Comm) (comm.Comm, error) // nil: the bare transport
	body  rankBody
	after func(c comm.Comm) // per-rank clean-up on the bare transport, after each measurement
}

// ladder measures strata on one world within a per-measurement budget.
type ladder struct {
	comms  []comm.Comm
	abort  func()
	budget time.Duration // wall time one (stratum, repetition) may take
	reps   int
}

// compare measures every stratum reps times, interleaved, and returns each
// one's median µs per iteration.
func (l *ladder) compare(strata []stratum) (map[string]float64, error) {
	wrapped := make([][]comm.Comm, len(strata))
	for si, st := range strata {
		wrapped[si] = l.comms
		if st.wrap != nil {
			wrapped[si] = make([]comm.Comm, len(l.comms))
			for r, c := range l.comms {
				wc, err := st.wrap(c)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", st.name, err)
				}
				wrapped[si][r] = wc
			}
		}
	}
	// Size the loop from a short probe of the first stratum.
	probe, err := timeRanks(wrapped[0], l.abort, 2, strata[0].body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strata[0].name, err)
	}
	iters := 3
	if probe > 0 {
		if n := int(float64(l.budget.Microseconds()) / probe); n > iters {
			iters = n
		}
	}
	if iters > 20000 {
		iters = 20000
	}
	samples := make([][]float64, len(strata))
	for rep := 0; rep < l.reps; rep++ {
		for si, st := range strata {
			us, err := timeRanks(wrapped[si], l.abort, iters, st.body)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", st.name, err)
			}
			samples[si] = append(samples[si], us)
			if st.after != nil {
				for _, c := range l.comms {
					st.after(c)
				}
			}
		}
	}
	out := map[string]float64{}
	for si, st := range strata {
		out[st.name] = medianF(samples[si])
	}
	return out, nil
}

// defaultTable is the selection table a Session created without options
// uses (gca.NewSession's default branch).
func defaultTable(p int) *tuning.Table {
	return tuning.Recommended(machine.Testbox(), p)
}

// cellOp maps a blocking cell kind to its collective operation.
func cellOp(k cellKind) (core.CollOp, bool) {
	switch k {
	case cellAllreduce:
		return core.OpAllreduce, true
	case cellBcast:
		return core.OpBcast, true
	case cellAllgatherv:
		return core.OpAllgatherv, true
	case cellAlltoallv:
		return core.OpAlltoallv, true
	case cellReduceScatterv:
		return core.OpReduceScatterv, true
	}
	return 0, false
}

// cellArgs builds the registry-level arguments of rank's cell for variant
// 0 — what the Session would hand to tuning.Table.Run.
func cellArgs(c *cellState, rank, p int) core.Args {
	a := core.Args{Op: datatype.Sum, Type: datatype.Float64}
	switch c.spec.kind {
	case cellAllreduce:
		a.SendBuf, a.RecvBuf = c.send, c.recv
	case cellBcast:
		a.Root = c.roots[0]
		a.SendBuf = c.recv
		if a.Root == rank {
			a.SendBuf = c.send
		}
	case cellAllgatherv:
		a.Counts = scale8(c.counts[0])
		a.SendBuf, a.RecvBuf = c.send[:a.Counts[rank]], c.recv
	case cellAlltoallv:
		a.Counts = scale8(c.counts[0])
		a.SendBuf = c.send[:8*sum(c.scounts[0])]
		a.RecvBuf = c.recv[:8*sum(c.rcounts[0])]
	case cellReduceScatterv:
		a.Counts = scale8(c.counts[0])
		a.SendBuf, a.RecvBuf = c.send, c.recv[:a.Counts[rank]]
	}
	return a
}

// cellLadder is the outside-in timing of one cell.
type cellLadder struct {
	Cell      int     `json:"cell"`
	Span      string  `json:"span"`
	Op        string  `json:"op"`
	Bytes     int     `json:"bytes"`
	Alg       string  `json:"alg"`
	K         int     `json:"k"`
	CoreUs    float64 `json:"core_us"`
	TuningUs  float64 `json:"tuning_us"`
	SessionUs float64 `json:"session_us"`
	// WrapUs is tuning.Table.Run over each wrapper inserted singly; FtUs is
	// a fault-tolerant Session. Only measured where the workload asks.
	WrapUs map[string]float64 `json:"wrap_us,omitempty"`
	FtUs   float64            `json:"ft_session_us,omitempty"`
}

// wrapper is one of the repository's comm.Comm wrappers that can be
// inserted singly over a transport.
type wrapper struct {
	name string
	wrap func(c comm.Comm) (comm.Comm, error)
}

func wrappers(p int) []wrapper {
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	reg := metrics.NewRegistry()
	rec := flight.NewRecorder(flight.Options{})
	return []wrapper{
		{"comm.subcomm", func(c comm.Comm) (comm.Comm, error) { return comm.NewSub(c, all) }},
		{"comm.namespace", func(c comm.Comm) (comm.Comm, error) { return comm.NewNamespace(c, 0) }},
		{"metrics.wrap", func(c comm.Comm) (comm.Comm, error) { return reg.Instrument(c), nil }},
		{"flight.wrap", func(c comm.Comm) (comm.Comm, error) { return rec.Wrap(c), nil }},
	}
}

// ladderCells lists the cells of a step the cell ladder times: every
// distinct blocking collective. A repeated cell is timed once and counted
// as often as it occurs; the nonblocking and hierarchical cells of a
// topology-aware workload have rungs of their own.
func ladderCells(s *stepSpec) []int {
	if s.ppn > 0 {
		return nil
	}
	var out []int
	seen := map[cellSpec]bool{}
	for ci, cs := range s.cells {
		if _, ok := cellOp(cs.kind); ok && !seen[cs] {
			seen[cs] = true
			out = append(out, ci)
		}
	}
	return out
}

// strataPerCell is how many strata the cell ladder measures per cell.
func strataPerCell(s *stepSpec) int {
	if s.ladderWrappers {
		return 3 + len(wrappers(s.p)) + 1
	}
	return 3
}

// cells times every ladder cell of the instance's step at the core, tuning
// and Session strata (and, where the workload asks, under each wrapper and
// a fault-tolerant Session).
func (l *ladder) cells(inst *instance) ([]cellLadder, error) {
	p := inst.spec.p
	tab := defaultTable(p)
	withWrappers := inst.spec.ladderWrappers
	wraps := wrappers(p)
	var out []cellLadder
	for _, ci := range ladderCells(inst.spec) {
		cs := inst.spec.cells[ci]
		op, _ := cellOp(cs.kind)
		argsOf := func(rank int) core.Args { return cellArgs(&inst.ranks[rank].cells[ci], rank, p) }
		sel := core.SelectionSize(op, argsOf(0))
		alg, k, err := tab.Choose(op, sel)
		if err != nil {
			return nil, err
		}
		runCore := func(rank int, c comm.Comm) (func() error, error) {
			a := argsOf(rank)
			a.K = k
			return func() error { return alg.Run(c, a) }, nil
		}
		runTuned := func(rank int, c comm.Comm) (func() error, error) {
			a := argsOf(rank)
			return func() error { return tab.Run(c, op, a) }, nil
		}
		session := func(opts ...gca.SessionOption) rankBody {
			return func(rank int, c comm.Comm) (func() error, error) {
				rk := inst.rankOn(rank, c, opts...)
				cell := &rk.cells[ci]
				return func() error { return rk.runCell(cell, 0) }, nil
			}
		}
		strata := []stratum{
			{name: "core", body: runCore},
			{name: "tuning", body: runTuned},
			{name: "session", body: session()},
		}
		if withWrappers {
			for _, w := range wraps {
				strata = append(strata, stratum{name: w.name, wrap: w.wrap, body: runTuned})
			}
			strata = append(strata, stratum{name: "ft", body: session(gca.WithFaultTolerance()),
				after: func(c comm.Comm) {
					// A fault-tolerant Session leaves its default op
					// deadline on the transport handle; later strata must
					// run unbounded like the workload does.
					if dl, ok := c.(comm.Deadliner); ok {
						dl.SetOpTimeout(0)
					}
				}})
		}
		us, err := l.compare(strata)
		if err != nil {
			return nil, fmt.Errorf("cell %d (%s %d B): %w", ci, cs.span, cs.bytes, err)
		}
		cl := cellLadder{Cell: ci, Span: cs.span, Op: op.String(), Bytes: cs.bytes, Alg: alg.Name, K: k,
			CoreUs: us["core"], TuningUs: us["tuning"], SessionUs: us["session"]}
		if withWrappers {
			cl.WrapUs = map[string]float64{}
			for _, w := range wraps {
				cl.WrapUs[w.name] = us[w.name]
			}
			cl.FtUs = us["ft"]
		}
		out = append(out, cl)
	}
	return out, nil
}

// multiplicity is how many times the step issues the cell a cellLadder
// describes.
func multiplicity(s *stepSpec, cl cellLadder) int {
	n := 0
	for _, cs := range s.cells {
		if cs == s.cells[cl.Cell] {
			n++
		}
	}
	return n
}

// selectNs times the table lookup that precedes every collective —
// Table.Choose for each cell of the step — and returns ns per step.
func selectNs(s *stepSpec) float64 {
	tab := defaultTable(s.p)
	type q struct {
		op core.CollOp
		n  int
	}
	var qs []q
	for _, cs := range s.cells {
		if op, ok := cellOp(cs.kind); ok {
			qs = append(qs, q{op, cs.bytes})
		} else if cs.kind == cellIAllreduce {
			qs = append(qs, q{core.OpAllreduce, cs.bytes})
		}
	}
	const rounds = 20000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, x := range qs {
			if _, _, err := tab.Choose(x.op, x.n); err != nil {
				return 0
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
