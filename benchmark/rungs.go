package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"exacoll/gca"
	"exacoll/internal/buf"
	"exacoll/internal/comm"
	"exacoll/internal/datatype"
	"exacoll/internal/metrics"
	"exacoll/internal/osu"
	"exacoll/internal/svc"
	"exacoll/internal/transport/match"
)

// hostRates are the machine's measured ceilings, taken in the same run as
// the numbers they are compared with.
type hostRates struct {
	ArrayBytes int     `json:"array_bytes"`
	Workers    int     `json:"workers"`
	LLCBytes   int64   `json:"llc_bytes"`
	MemcpyMBps float64 `json:"memcpy_MBps"`
	SumF64MBps float64 `json:"sum_f64_MBps"`
	// Roofline is the reducer's rate over its memory-bandwidth bound. The
	// copy moves 2 bytes per byte copied (Go's large copies store past the
	// cache) and the sum 3 per byte reduced (two reads, one write), so the
	// bound is 2/3 of the copy rate. The copy itself need not saturate
	// DRAM, so the ratio can exceed 1; it compares the kernel with what
	// plain data movement achieves on this host, no more.
	Roofline float64 `json:"roofline_ratio"`
}

// measureHost times a plain copy and the float64 sum kernel over arrays of
// at least four times the last-level cache (HPC sheet: a bandwidth figure
// taken from cache is not one), with one worker per CPU on disjoint
// slices: the ceilings a world of ranks sharing this host runs under.
// Smoke runs use 8 MiB and say so.
func measureHost(smoke bool) (hostRates, error) {
	llc := llcBytes()
	n := int(4 * llc)
	if n == 0 {
		n = 256 << 20 // cache size unknown: assume a large one
	}
	if smoke {
		n = 8 << 20
	}
	workers := runtime.NumCPU()
	n = n / (8 * workers) * (8 * workers)
	dst, src := make([]byte, n), make([]byte, n)
	fillF64(src, 1, 0)
	fillF64(dst, 2, 0) // touches every page before the clock starts
	chunk := n / workers
	best := func(reps int, fn func(dst, src []byte) error) (float64, error) {
		var bestSec float64
		for i := 0; i < reps; i++ {
			errs := make([]error, workers)
			var wg sync.WaitGroup
			t0 := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = fn(dst[w*chunk:(w+1)*chunk], src[w*chunk:(w+1)*chunk])
				}(w)
			}
			wg.Wait()
			sec := time.Since(t0).Seconds()
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
			if bestSec == 0 || sec < bestSec {
				bestSec = sec
			}
		}
		return float64(n) / bestSec / 1e6, nil
	}
	h := hostRates{ArrayBytes: n, LLCBytes: llc, Workers: workers}
	var err error
	if h.MemcpyMBps, err = best(3, func(d, s []byte) error { copy(d, s); return nil }); err != nil {
		return h, err
	}
	if h.SumF64MBps, err = best(3, func(d, s []byte) error { return datatype.Apply(datatype.Sum, datatype.Float64, d, s) }); err != nil {
		return h, err
	}
	h.Roofline = h.SumF64MBps / (h.MemcpyMBps * 2 / 3)
	return h, nil
}

// bufGetPutNs times one Get/Put pair of the scratch pool at size n, over
// as many pairs as fit in 20 ms (race builds poison every returned buffer,
// which makes a pair cost a memset).
func bufGetPutNs(n int) float64 {
	buf.Put(buf.Get(n))
	rounds := 0
	t0 := time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		for i := 0; i < 100; i++ {
			buf.Put(buf.Get(n))
		}
		rounds += 100
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds)
}

// matchNs times the shared matching engine (tcp and shm deliver through
// it): a receive posted before its message arrives, and a message that
// arrives first and waits on the unexpected queue. ns per message.
func matchNs() (expected, unexpected float64, err error) {
	const rounds, n = 100000, 64
	e := match.New()
	dst := make([]byte, n)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		pr, err := e.Post(1, 7, dst)
		if err != nil {
			return 0, 0, err
		}
		e.Deliver(1, 7, buf.Get(n))
		if err := e.Request(pr, 1, 7, 0).Wait(); err != nil {
			return 0, 0, err
		}
	}
	expected = float64(time.Since(t0).Nanoseconds()) / rounds
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		e.Deliver(1, 7, buf.Get(n))
		pr, err := e.Post(1, 7, dst)
		if err != nil {
			return 0, 0, err
		}
		if err := e.Request(pr, 1, 7, 0).Wait(); err != nil {
			return 0, 0, err
		}
	}
	unexpected = float64(time.Since(t0).Nanoseconds()) / rounds
	return expected, unexpected, nil
}

const streamTag comm.Tag = comm.TagUser + 201

// streamMBps streams msgs messages of n bytes from rank 1 to rank 0 of a
// world and returns the receiver's payload rate. One message each way
// first settles connections and rings.
func streamMBps(comms []comm.Comm, n, msgs int) (float64, error) {
	c0, c1 := comms[0], comms[1]
	// Each rank owns its buffers, as two processes would.
	sbuf, rbuf := make([]byte, n), make([]byte, n)
	ackIn, ackOut := make([]byte, 1), make([]byte, 1)
	errc := make(chan error, 1) // the one sender reports once
	go func() {
		if err := c1.Send(0, streamTag, sbuf); err != nil {
			errc <- err
			return
		}
		if _, err := c1.Recv(0, streamTag, ackIn); err != nil {
			errc <- err
			return
		}
		for i := 0; i < msgs; i++ {
			if err := c1.Send(0, streamTag, sbuf); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	recvAll := func() (time.Duration, error) {
		if _, err := c0.Recv(1, streamTag, rbuf); err != nil {
			return 0, err
		}
		if err := c0.Send(1, streamTag, ackOut); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			if _, err := c0.Recv(1, streamTag, rbuf); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	d, rerr := recvAll()
	serr := <-errc
	if rerr != nil {
		return 0, rerr
	}
	if serr != nil {
		return 0, serr
	}
	return float64(n) * float64(msgs) / d.Seconds() / 1e6, nil
}

// p2pRates are the transport's point-to-point figures on the workload's
// own world.
type p2pRates struct {
	PingPongUs    float64 `json:"pingpong_us"`
	StreamBytes   int     `json:"stream_message_bytes"`
	StreamMBps    float64 `json:"stream_MBps"`
	MemStreamMBps float64 `json:"mem_stream_MBps"`
}

// measureP2P runs the 8-byte OSU ping-pong between ranks 0 and 1 and
// streams messages of the step's largest size, on the workload's world and
// on a 2-rank mem world beside it.
func measureP2P(w *world, maxMsg int) (p2pRates, error) {
	out := p2pRates{StreamBytes: maxMsg}
	stats := make([]osu.Stats, 2)
	errs := make([]error, 2)
	done := make(chan int, 2) // both ping-pong ranks report
	for r := 0; r < 2; r++ {
		go func(r int) {
			stats[r], errs[r] = osu.PingPong(w.comms[r], 8, osu.Options{Warmup: 200, Iters: 5000})
			done <- r
		}(r)
	}
	<-done
	<-done
	for _, err := range errs {
		if err != nil {
			return out, fmt.Errorf("pingpong: %w", err)
		}
	}
	out.PingPongUs = stats[0].AvgRank * 1e6
	msgs := (64 << 20) / maxMsg
	if msgs < 8 {
		msgs = 8
	}
	if msgs > 4000 {
		msgs = 4000
	}
	// Best of three: an eager sender can run far ahead of the receiver,
	// and one scheduler hiccup then decides the whole stream's rate.
	best := func(comms []comm.Comm) (float64, error) {
		var top float64
		for i := 0; i < 3; i++ {
			r, err := streamMBps(comms, maxMsg, msgs)
			if err != nil {
				return 0, err
			}
			top = max(top, r)
		}
		return top, nil
	}
	var err error
	if out.StreamMBps, err = best(w.comms); err != nil {
		return out, fmt.Errorf("stream: %w", err)
	}
	mw, err := newMemWorld(2, 0)
	if err != nil {
		return out, err
	}
	defer mw.Close()
	if out.MemStreamMBps, err = best(mw.comms); err != nil {
		return out, fmt.Errorf("mem stream: %w", err)
	}
	return out, nil
}

// nbcRung is the nonblocking-collective comparison on the overlap
// workload's world.
type nbcRung struct {
	OverlappedUs   float64 `json:"overlapped_us"`     // istart+compute ... waitall
	BlockingUs     float64 `json:"blocking_us"`       // blocking allreduce + compute, serial
	CommOnlyUs     float64 `json:"comm_only_us"`      // the blocking allreduces alone
	ComputeOnlyUs  float64 `json:"compute_only_us"`   // the compute kernels alone
	OverlapRatio   float64 `json:"overlap_ratio"`     // (comm+compute-overlapped) / comm
	VsBlockingRate float64 `json:"vs_blocking_ratio"` // overlapped / blocking
}

// measureNBC times the step's nonblocking section three ways on flat
// sessions: as issued (start, compute, ..., wait all), with each start
// replaced by the blocking allreduce, and communication and compute alone.
func (l *ladder) measureNBC(inst *instance) (nbcRung, error) {
	body := func(useNBC, doComm, doCompute bool) rankBody {
		return func(rank int, c comm.Comm) (func() error, error) {
			rk := inst.rankOn(rank, c)
			return func() error {
				for ci := range rk.cells {
					cell := &rk.cells[ci]
					switch cell.spec.kind {
					case cellIAllreduce:
						if !doComm {
							continue
						}
						if useNBC {
							if err := rk.runCell(cell, 0); err != nil {
								return err
							}
						} else if err := rk.s.Allreduce(cell.send, cell.recv, gca.Sum, gca.Float64); err != nil {
							return err
						}
					case cellCompute:
						if doCompute {
							if err := rk.runCell(cell, 0); err != nil {
								return err
							}
						}
					case cellWaitAll:
						if err := rk.runCell(cell, 0); err != nil {
							return err
						}
					}
				}
				return nil
			}, nil
		}
	}
	us, err := l.compare([]stratum{
		{name: "overlapped", body: body(true, true, true)},
		{name: "blocking", body: body(false, true, true)},
		{name: "comm", body: body(false, true, false)},
		{name: "compute", body: body(false, false, true)},
	})
	if err != nil {
		return nbcRung{}, err
	}
	r := nbcRung{OverlappedUs: us["overlapped"], BlockingUs: us["blocking"], CommOnlyUs: us["comm"], ComputeOnlyUs: us["compute"]}
	if r.CommOnlyUs > 0 {
		r.OverlapRatio = (r.CommOnlyUs + r.ComputeOnlyUs - r.OverlappedUs) / r.CommOnlyUs
	}
	if r.BlockingUs > 0 {
		r.VsBlockingRate = r.OverlappedUs / r.BlockingUs
	}
	return r, nil
}

// topoRung compares the hierarchical allreduce with the flat one.
type topoRung struct {
	Bytes     int     `json:"bytes"`
	HierUs    float64 `json:"hier_us"`
	FlatUs    float64 `json:"flat_us"`
	Ratio     float64 `json:"hier_vs_flat_ratio"`
	IntraMsgs float64 `json:"intra_msgs_per_call"`
	InterMsgs float64 `json:"inter_msgs_per_call"`
}

// measureTopo times the step's blocking allreduce on a topology-aware
// session and on a flat one, then counts the hierarchical call's messages
// per level from the public metrics snapshot.
func (l *ladder) measureTopo(inst *instance) (topoRung, error) {
	ci := -1
	for i, cs := range inst.spec.cells {
		if cs.kind == cellAllreduce {
			ci = i
		}
	}
	if ci < 0 {
		return topoRung{}, fmt.Errorf("no blocking allreduce cell")
	}
	body := func(opts ...gca.SessionOption) rankBody {
		return func(rank int, c comm.Comm) (func() error, error) {
			cell := &inst.ranks[rank].cells[ci]
			s := gca.NewSession(c, opts...)
			return func() error { return s.Allreduce(cell.send, cell.recv, gca.Sum, gca.Float64) }, nil
		}
	}
	us, err := l.compare([]stratum{
		{name: "hier", body: body(gca.WithTopologyPPN(inst.spec.ppn))},
		{name: "flat", body: body()},
	})
	if err != nil {
		return topoRung{}, err
	}
	out := topoRung{Bytes: inst.spec.cells[ci].bytes, HierUs: us["hier"], FlatUs: us["flat"]}
	if out.FlatUs > 0 {
		out.Ratio = out.HierUs / out.FlatUs
	}
	const calls = 20
	reg := metrics.NewRegistry()
	if _, err := timeRanks(l.comms, l.abort, calls-1, body(gca.WithTopologyPPN(inst.spec.ppn), gca.WithMetrics(reg))); err != nil {
		return out, err
	}
	tot := reg.Snapshot().Totals()
	out.IntraMsgs = float64(tot.HierIntraSends) / calls // timeRanks adds one untimed call
	out.InterMsgs = float64(tot.HierInterSends) / calls
	return out, nil
}

// svcRung compares svc.Tenant.Run — goroutines spawned per call, breaker
// and drain accounting — with the same tenant's sessions driven by
// persistent rank goroutines.
type svcRung struct {
	TenantRunUs float64 `json:"tenant_run_us"`
	SessionUs   float64 `json:"session_us"`
	DeltaUs     float64 `json:"run_delta_us"`
}

func measureSvc(budget time.Duration, reps int) (svcRung, error) {
	srv := svc.NewServer(svc.Config{})
	defer srv.Close()
	tn, err := srv.Open("ladder", svc.QoSLatency, svcRanks)
	if err != nil {
		return svcRung{}, err
	}
	defer tn.Close()
	sends, recvs := make([][]byte, svcRanks), make([][]byte, svcRanks)
	for r := range sends {
		sends[r] = make([]byte, svcBytes)
		fillF64(sends[r], r, 0)
		recvs[r] = make([]byte, svcBytes)
	}
	allreduce := func(rank int, s *gca.Session) error {
		return s.Allreduce(sends[rank], recvs[rank], gca.Sum, gca.Float64)
	}
	// The tenant's sessions sit on the server's pooled world; reach their
	// communicators through the sessions themselves.
	comms := make([]comm.Comm, svcRanks)
	for r := range comms {
		comms[r] = tn.Session(r).Comm()
	}
	l := &ladder{comms: comms, abort: srv.Close, budget: budget, reps: reps}
	sess, err := l.compare([]stratum{{name: "session", body: func(rank int, _ comm.Comm) (func() error, error) {
		s := tn.Session(rank)
		return func() error { return allreduce(rank, s) }, nil
	}}})
	if err != nil {
		return svcRung{}, err
	}
	iters := int(float64(budget.Microseconds()) / sess["session"])
	if iters < 10 {
		iters = 10
	}
	var runs []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := tn.Run(allreduce); err != nil {
				return svcRung{}, err
			}
		}
		runs = append(runs, float64(time.Since(t0).Microseconds())/float64(iters))
	}
	out := svcRung{TenantRunUs: medianF(runs), SessionUs: sess["session"]}
	out.DeltaUs = out.TenantRunUs - out.SessionUs
	return out, nil
}

// mallocsDuring returns the heap allocations fn makes, process-wide.
func mallocsDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
