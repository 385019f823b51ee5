package main

import (
	"bytes"
	"fmt"

	"exacoll/gca"
	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
)

// cellKind is one operation of a step as the application issues it.
type cellKind int

const (
	cellAllreduce cellKind = iota
	cellBcast
	cellAllgatherv
	cellAlltoallv
	cellReduceScatterv
	cellIAllreduce // start a nonblocking allreduce; completed by cellWaitAll
	cellCompute    // local reduction kernel over a private buffer
	cellWaitAll    // complete every outstanding nonblocking collective
)

// cellSpec describes one operation of a step. bytes is the per-rank
// payload of the regular collectives and of the compute kernel, and the
// whole shared vector (or one rank's send row, for alltoallv) of the
// vector collectives.
type cellSpec struct {
	kind  cellKind
	bytes int
	span  string // name of the span the traced pass records around it
}

// stepSpec is a step-loop workload: a world, a session stack, and the
// fixed sequence of cells every step repeats.
type stepSpec struct {
	name      string
	transport string // mem, shm or tcp
	p         int
	ppn       int // > 0: declare this synthetic layout and make sessions topology-aware
	stripes   int // tcp connections per peer
	cells     []cellSpec
	variants  int // distinct seed-generated steps the loop cycles through

	warmSteps   int     // warm-up steps inside set-up
	verifyEvery int     // verify every n-th timed step
	tailQ       float64 // the fixed quantile of step_tail_us
	traceEvery  int     // traced pass keeps the spans of every n-th step
	smokeSteps  int     // timed steps in -smoke mode

	// ladderWrappers asks the traced run to also time every cell under
	// each comm.Comm wrapper: worth its time only where per-call overhead
	// is a visible share of the step.
	ladderWrappers bool
}

func (s *stepSpec) sessionOptions() []gca.SessionOption {
	if s.ppn > 0 {
		return []gca.SessionOption{gca.WithTopologyPPN(s.ppn)}
	}
	return nil
}

// cellState is one rank's buffers and expectations for one cell.
type cellState struct {
	spec cellSpec
	send []byte   // this rank's contribution (vector cells use a prefix)
	recv []byte   // result buffer
	want [][]byte // [variant] expected result; len 1 when variants agree

	roots   []int    // bcast: [variant] root
	srcs    [][]byte // bcast: every rank's send buffer (roots are verified against theirs)
	counts  [][]int  // vector cells: [variant] element counts (p; the p*p matrix for alltoallv)
	scounts [][]int  // alltoallv: [variant] this rank's send row
	rcounts [][]int  // alltoallv: [variant] this rank's receive column
}

// rankProg is one rank of a step-loop workload; it implements stepper.
type rankProg struct {
	spec  *stepSpec
	rank  int
	s     *gca.Session
	bare  comm.Comm   // the transport endpoint, for barriers outside the measured stack
	tr    *rankTracer // nil in untraced passes
	cells []cellState
	reqs  []gca.CollRequest
	acc   []byte // compute kernel accumulator
}

func (rk *rankProg) variant(i int) int { return i % rk.spec.variants }

func pick[T any](perVariant []T, v int) T {
	if len(perVariant) == 1 {
		return perVariant[0]
	}
	return perVariant[v]
}

func (rk *rankProg) step(i int) error {
	v := rk.variant(i)
	if rk.tr == nil {
		for ci := range rk.cells {
			if err := rk.runCell(&rk.cells[ci], v); err != nil {
				return err
			}
		}
		return nil
	}
	root := rk.tr.beginStep(i)
	defer rk.tr.end(root)
	for ci := range rk.cells {
		id := rk.tr.begin(rk.cells[ci].spec.span)
		err := rk.runCell(&rk.cells[ci], v)
		rk.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (rk *rankProg) runCell(c *cellState, v int) error {
	switch c.spec.kind {
	case cellAllreduce:
		return rk.s.Allreduce(c.send, c.recv, gca.Sum, gca.Float64)
	case cellBcast:
		if root := c.roots[v]; root != rk.rank {
			return rk.s.Bcast(c.recv, root)
		} else {
			return rk.s.Bcast(c.send, root)
		}
	case cellAllgatherv:
		counts := c.counts[v]
		return rk.s.Allgatherv(c.send[:8*counts[rk.rank]], counts, nil, c.recv, gca.Float64)
	case cellAlltoallv:
		sc, rc := c.scounts[v], c.rcounts[v]
		return rk.s.Alltoallv(c.send[:8*sum(sc)], sc, nil, c.recv[:8*sum(rc)], rc, nil, gca.Float64)
	case cellReduceScatterv:
		counts := c.counts[v]
		return rk.s.ReduceScatterv(c.send, c.recv[:8*counts[rk.rank]], counts, gca.Sum, gca.Float64)
	case cellIAllreduce:
		req, err := rk.s.IAllreduce(c.send, c.recv, gca.Sum, gca.Float64)
		if err != nil {
			return err
		}
		rk.reqs = append(rk.reqs, req)
		return nil
	case cellCompute:
		return datatype.Apply(datatype.Sum, datatype.Float64, rk.acc, c.send)
	case cellWaitAll:
		err := gca.WaitAllColl(rk.reqs...)
		rk.reqs = rk.reqs[:0]
		return err
	}
	return fmt.Errorf("benchmark: unknown cell kind %d", c.spec.kind)
}

func (rk *rankProg) clearOutputs() {
	for ci := range rk.cells {
		clear(rk.cells[ci].recv)
	}
}

func (rk *rankProg) verify(i int) error {
	v := rk.variant(i)
	for ci := range rk.cells {
		c := &rk.cells[ci]
		var got, want []byte
		switch c.spec.kind {
		case cellAllreduce, cellIAllreduce:
			got, want = c.recv, pick(c.want, v)
		case cellBcast:
			root := c.roots[v]
			if root == rk.rank {
				continue // the root's buffer is the source
			}
			got, want = c.recv, c.srcs[root]
		case cellAllgatherv, cellAlltoallv, cellReduceScatterv:
			want = pick(c.want, v)
			got = c.recv[:len(want)]
		default:
			continue
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("cell %d (%s): result differs from the naive reference", ci, c.spec.span)
		}
	}
	return nil
}

// barrier runs on the bare transport, beside the stack under test, so the
// traced pass's message counts hold the step's own messages only.
func (rk *rankProg) barrier() error { return core.BarrierDissemination(rk.bare) }

func sum(v []int) int {
	t := 0
	for _, n := range v {
		t += n
	}
	return t
}

func scale8(v []int) []int {
	out := make([]int, len(v))
	for i, n := range v {
		out[i] = 8 * n
	}
	return out
}

// instance is one formed world of a step-loop workload with every rank's
// buffers filled and references computed. bind attaches a session stack
// to it; the same instance serves the untraced pass, the traced pass and
// the ladder.
type instance struct {
	spec  *stepSpec
	w     *world
	ranks []*rankProg
	scs   []*spanComm // the traced pass's transport wrappers, else nil
	// payloadBytes is what one rank contributes to one step, summed over
	// the step's collectives (the vector collectives' per-rank mean).
	payloadBytes int
	// reducedBytes is the number of operand bytes the reduction kernel
	// must combine per step across the world, computed from the sizes:
	// (p-1)·n for every n-byte reduction, plus the compute cells.
	reducedBytes int
	// bufferBytes is the working set: every rank's send and receive
	// buffers together.
	bufferBytes int
}

func newWorld(s *stepSpec) (*world, error) {
	switch s.transport {
	case "mem":
		return newMemWorld(s.p, s.ppn)
	case "shm":
		return newShmWorld(s.p)
	case "tcp":
		return newTCPWorld(s.p, s.stripes)
	}
	return nil, fmt.Errorf("benchmark: unknown transport %q", s.transport)
}

// newInstance forms the world and generates every rank's inputs from seed.
func newInstance(s *stepSpec, seed uint64) (*instance, error) {
	w, err := newWorld(s)
	if err != nil {
		return nil, err
	}
	inst := &instance{spec: s, w: w, ranks: make([]*rankProg, s.p)}
	for r := range inst.ranks {
		inst.ranks[r] = &rankProg{spec: s, rank: r, cells: make([]cellState, len(s.cells))}
	}
	salt := payloadSalt(seed)
	p := s.p
	vp := genVectorPlan(seed, p, s.variants, vecTotal(s, cellAllgatherv), vecTotal(s, cellAlltoallv), vecTotal(s, cellReduceScatterv))
	for ci, cs := range s.cells {
		sends := make([][]byte, p)
		for r := 0; r < p; r++ {
			c := &inst.ranks[r].cells[ci]
			c.spec = cs
			switch cs.kind {
			case cellBcast:
				c.send = make([]byte, cs.bytes)
				fillBytes(c.send, r, salt+ci)
				c.recv = make([]byte, cs.bytes)
			case cellAllreduce, cellIAllreduce, cellReduceScatterv:
				c.send = make([]byte, cs.bytes)
				fillF64(c.send, r, salt+ci)
				c.recv = make([]byte, cs.bytes)
			case cellAllgatherv:
				// A one-hot variant puts the whole vector on one rank.
				c.send = make([]byte, cs.bytes)
				fillF64(c.send, r, salt+ci)
				c.recv = make([]byte, cs.bytes)
			case cellAlltoallv:
				// Every rank's one-hot row may point at the same peer.
				c.send = make([]byte, cs.bytes)
				fillF64(c.send, r, salt+ci)
				c.recv = make([]byte, cs.bytes*p)
			case cellCompute:
				c.send = make([]byte, cs.bytes)
				fillF64(c.send, r, salt+ci)
				inst.ranks[r].acc = make([]byte, cs.bytes)
			}
			sends[r] = c.send
			inst.bufferBytes += len(c.send) + len(c.recv)
		}
		switch cs.kind {
		case cellAllreduce, cellIAllreduce:
			want := naiveSumF64(sends)
			for r := 0; r < p; r++ {
				inst.ranks[r].cells[ci].want = [][]byte{want}
			}
			inst.payloadBytes += cs.bytes
			inst.reducedBytes += (p - 1) * cs.bytes
		case cellBcast:
			roots := genRoots(seed+uint64(ci), p, s.variants)
			for r := 0; r < p; r++ {
				inst.ranks[r].cells[ci].roots = roots
				inst.ranks[r].cells[ci].srcs = sends
			}
			inst.payloadBytes += cs.bytes
		case cellAllgatherv:
			for v := 0; v < s.variants; v++ {
				counts := vp.allgatherv[v]
				blocks := make([][]byte, p)
				for r := range blocks {
					blocks[r] = sends[r][:8*counts[r]]
				}
				want := naiveAllgatherv(blocks)
				for r := 0; r < p; r++ {
					c := &inst.ranks[r].cells[ci]
					c.counts = append(c.counts, counts)
					c.want = append(c.want, want)
				}
			}
			inst.payloadBytes += cs.bytes / p
		case cellAlltoallv:
			for v := 0; v < s.variants; v++ {
				m := vp.alltoallv[v]
				packed := make([][]byte, p)
				for q := range packed {
					packed[q] = sends[q][:8*sum(m[q*p:(q+1)*p])]
				}
				for r := 0; r < p; r++ {
					c := &inst.ranks[r].cells[ci]
					col := make([]int, p)
					for q := range col {
						col[q] = m[q*p+r]
					}
					c.counts = append(c.counts, m)
					c.scounts = append(c.scounts, m[r*p:(r+1)*p])
					c.rcounts = append(c.rcounts, col)
					c.want = append(c.want, naiveAlltoallv(packed, scale8(m), r))
				}
			}
			inst.payloadBytes += cs.bytes
		case cellReduceScatterv:
			for v := 0; v < s.variants; v++ {
				counts := vp.reduceScatterv[v]
				for r := 0; r < p; r++ {
					c := &inst.ranks[r].cells[ci]
					c.counts = append(c.counts, counts)
					c.want = append(c.want, naiveReduceScatterv(sends, scale8(counts), r))
				}
			}
			inst.payloadBytes += cs.bytes
			inst.reducedBytes += (p - 1) * cs.bytes
		case cellCompute:
			inst.reducedBytes += p * cs.bytes
		}
	}
	return inst, nil
}

// vecTotal is the element total the plan cuts a vector cell's counts from:
// the whole gathered or reduced vector, or one rank's alltoallv send row.
func vecTotal(s *stepSpec, kind cellKind) int {
	for _, c := range s.cells {
		if c.kind == kind {
			return c.bytes / 8
		}
	}
	return 0
}

// bind gives every rank a fresh session over its transport endpoint. With
// tracers, a spanComm goes between the transport and the session and the
// ranks record spans; without, the session sits on the bare transport.
func (inst *instance) bind(trs []*rankTracer) {
	inst.scs = nil
	for r, rk := range inst.ranks {
		var c comm.Comm = inst.w.comms[r]
		rk.bare, rk.tr = c, nil
		if trs != nil {
			sc := newSpanComm(c, trs[r])
			inst.scs = append(inst.scs, sc)
			c, rk.tr = sc, trs[r]
		}
		rk.s = gca.NewSession(c, inst.spec.sessionOptions()...)
		rk.reqs = nil
	}
}

// rankOn returns a copy of rank's program (sharing its buffers) bound to a
// fresh untraced session over c — how the ladder runs a rank's cells on a
// stack of its own choosing.
func (inst *instance) rankOn(rank int, c comm.Comm, opts ...gca.SessionOption) *rankProg {
	rk := *inst.ranks[rank]
	rk.bare, rk.tr, rk.reqs, rk.s = c, nil, nil, gca.NewSession(c, opts...)
	return &rk
}

func (inst *instance) steppers() []stepper {
	out := make([]stepper, len(inst.ranks))
	for r, rk := range inst.ranks {
		out[r] = rk
	}
	return out
}

func (inst *instance) Close() { inst.w.Close() }
