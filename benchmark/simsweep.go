package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
	"exacoll/internal/machine"
	"exacoll/internal/simnet"
)

// sim_sweep: no real transport at all. A fixed grid — five of the paper's
// generalized algorithms × three sizes × three radices, 45 points — is
// simulated on the Frontier model, one point per step, so the wall time is
// the simulator kernel's own cost (event admission, port queues, payload
// copies between the rank goroutines). The seed draws the order in which a
// cycle visits the points; only whole cycles are run, so every run and
// every seed simulates the same multiset of points.
//
// The point count is odd on purpose. The points' costs differ a
// thousandfold, so the pooled latencies form 45 tight clusters; with an
// odd count the median always falls inside the middle cluster, whereas an
// even count puts it on the gap between two clusters, where it flips.
//
// The issue asks for p=128 and a 1 MiB largest size. One cycle of that
// grid takes over a minute on the reference host (recursive multiplying at
// 1 MiB, k=16 alone needs 12 s; k-ring sends (p-1)² messages whatever the
// size), and the driver allows a run 10 s. The grid is scaled down
// uniformly instead — p=64, 256 KiB, k up to 8 — which brings a cycle to
// about a second.
const simRanks = 64

var (
	simAlgs  = []string{"allreduce_recmul", "allreduce_knomial", "bcast_knomial", "bcast_recmul", "bcast_kring"}
	simSizes = []int{8, 4 << 10, 256 << 10}
	simKs    = []int{2, 4, 8}
)

// simPoint is one (algorithm, size, radix) point of the grid.
type simPoint struct {
	alg   *core.Algorithm
	bytes int
	k     int
}

// simGrid is the workload's state: the points, the seed's visiting order,
// per-rank payload buffers reused by every point, and what each point is
// expected to produce.
type simGrid struct {
	p      int
	spec   machine.Spec
	points []simPoint
	order  []int    // permutation of point indices, drawn from the seed
	send   [][]byte // [rank] max-size contribution
	recv   [][]byte
	want   map[int][]byte // size -> naive allreduce result
	// virt is the virtual completion time first seen for each point; the
	// simulator is deterministic, so every later run must match it.
	virt []float64
}

func newSimGrid(seed uint64, p int) (*simGrid, error) {
	g := &simGrid{p: p, spec: machine.Frontier(), want: map[int][]byte{}}
	for _, name := range simAlgs {
		alg, err := core.Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, n := range simSizes {
			for _, k := range simKs {
				g.points = append(g.points, simPoint{alg: alg, bytes: n, k: k})
			}
		}
	}
	g.order = newRNG(seed).perm(len(g.points))
	maxN := simSizes[len(simSizes)-1]
	salt := payloadSalt(seed)
	g.send = make([][]byte, p)
	g.recv = make([][]byte, p)
	for rank := range g.send {
		g.send[rank] = make([]byte, maxN)
		fillF64(g.send[rank], rank, salt)
		g.recv[rank] = make([]byte, maxN)
	}
	for _, n := range simSizes {
		pre := make([][]byte, p)
		for rank := range pre {
			pre[rank] = g.send[rank][:n]
		}
		g.want[n] = naiveSumF64(pre)
	}
	g.virt = make([]float64, len(g.points))
	for i := range g.virt {
		g.virt[i] = math.NaN()
	}
	return g, nil
}

// simStep is what simulating one point measured.
type simStep struct {
	wallNs   int64
	virtSec  float64
	messages int
}

// run simulates point pi and checks its outputs: the payload on the first
// and last rank against the naive reference, and the virtual completion
// time against the first run of the same point.
func (g *simGrid) run(pi int) (simStep, error) {
	pt := g.points[pi]
	n, k := pt.bytes, pt.k
	for _, rank := range []int{0, g.p - 1} {
		clear(g.recv[rank][:n])
	}
	t0 := time.Now()
	sim, err := simnet.New(g.spec, g.p)
	if err != nil {
		return simStep{}, err
	}
	err = sim.Run(func(c comm.Comm) error {
		rank := c.Rank()
		a := core.Args{K: k, Op: datatype.Sum, Type: datatype.Float64}
		if pt.alg.Op == core.OpBcast {
			// Rank 0 broadcasts its contribution; the others receive.
			a.SendBuf = g.recv[rank][:n]
			if rank == 0 {
				a.SendBuf = g.send[0][:n]
			}
		} else {
			a.SendBuf, a.RecvBuf = g.send[rank][:n], g.recv[rank][:n]
		}
		return pt.alg.Run(c, a)
	})
	st := simStep{wallNs: int64(time.Since(t0)), virtSec: sim.MaxTime(), messages: sim.Stats().Messages}
	if err != nil {
		return st, fmt.Errorf("%s n=%d k=%d: %w", pt.alg.Name, n, k, err)
	}
	want := g.want[n]
	if pt.alg.Op == core.OpBcast {
		want = g.send[0][:n]
	}
	if !bytes.Equal(g.recv[g.p-1][:n], want) || (pt.alg.Op != core.OpBcast && !bytes.Equal(g.recv[0][:n], want)) {
		return st, fmt.Errorf("%s n=%d k=%d: result differs from the naive reference", pt.alg.Name, n, k)
	}
	if first := g.virt[pi]; math.IsNaN(first) {
		g.virt[pi] = st.virtSec
	} else if first != st.virtSec {
		return st, fmt.Errorf("%s n=%d k=%d: virtual time %.9gs, was %.9gs — the simulator is not deterministic",
			pt.alg.Name, n, k, st.virtSec, first)
	}
	return st, nil
}

// checksumUs is the sum of the virtual completion times of every point, in
// whole nanoseconds expressed as µs. It depends on nothing but the grid:
// any two complete cycles, at any seed, must report the same value.
// complete is false until every point has been simulated.
func (g *simGrid) checksumUs() (us float64, complete bool) {
	var ns int64
	complete = true
	for _, v := range g.virt {
		if math.IsNaN(v) {
			complete = false
			continue
		}
		ns += int64(math.Round(v * 1e9))
	}
	return float64(ns) / 1e3, complete
}

// simPass is what a timed pass over the grid measured.
type simPass struct {
	lat      []int64
	wall     time.Duration
	steps    int
	failed   int
	firstErr error
	messages int64
	bytes    int64 // simulated per-rank payload bytes over all steps
}

// simLoop simulates whole cycles of the grid, in the seed's order, until d
// has elapsed (at least one; exactly maxCycles when > 0).
func simLoop(g *simGrid, d time.Duration, maxCycles int) simPass {
	var out simPass
	start := time.Now()
	for cycle := 0; ; cycle++ {
		if maxCycles > 0 && cycle >= maxCycles {
			break
		}
		if maxCycles <= 0 && cycle >= 1 && time.Since(start) >= d {
			break
		}
		for _, pi := range g.order {
			st, err := g.run(pi)
			out.steps++
			if err != nil {
				out.failed++
				if out.firstErr == nil {
					out.firstErr = err
				}
				continue
			}
			out.lat = append(out.lat, st.wallNs)
			out.messages += int64(st.messages)
			out.bytes += int64(g.points[pi].bytes)
		}
	}
	out.wall = time.Since(start)
	return out
}
