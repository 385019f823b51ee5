package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/machine"
	"exacoll/internal/transport/match"
	"exacoll/internal/transport/mem"
	"exacoll/internal/transport/shm"
	"exacoll/internal/transport/tcp"
	"exacoll/internal/tuning"
)

// Transport point-to-point streaming bandwidth: the measurement behind the
// README's mem/shm/tcp/striped-tcp table and the multi-port striping gate.
// A p=2 pair streams fixed-size messages one way; bandwidth is payload
// bytes over the wall time of the whole stream, best of several runs so a
// scheduler hiccup cannot sink a CI gate. Loopback TCP is CPU-bound on the
// kernel's copy path, so striping across connections recovers bandwidth
// the same way multi-port NICs do (§II-B2): the stripes' copies run on
// separate cores.

const bwTag = 7701

// streamBW streams iters msgBytes-sized messages from c1 to c0 and returns
// MB/s. One warmup message each way settles connection setup and ring
// paging before the clock starts.
func streamBW(c0, c1 comm.Comm, msgBytes, iters int) (float64, error) {
	sbuf := make([]byte, msgBytes)
	rbuf := make([]byte, msgBytes)
	errc := make(chan error, 1)
	go func() {
		if err := c1.Send(0, bwTag, sbuf); err != nil {
			errc <- err
			return
		}
		if _, err := c1.Recv(0, bwTag, rbuf[:1]); err != nil {
			errc <- err
			return
		}
		for i := 0; i < iters; i++ {
			if err := c1.Send(0, bwTag, sbuf); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	if _, err := c0.Recv(1, bwTag, rbuf); err != nil {
		return 0, err
	}
	if err := c0.Send(1, bwTag, sbuf[:1]); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := c0.Recv(1, bwTag, rbuf); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(t0)
	if err := <-errc; err != nil {
		return 0, err
	}
	return float64(msgBytes) * float64(iters) / elapsed.Seconds() / 1e6, nil
}

// exchangeBW has both ranks exchange iters msgBytes-sized messages with
// comm.SendRecv — the primitive of every pairwise-exchange collective —
// and returns MB/s per direction as rank 0 sees it, after one warmup
// exchange.
func exchangeBW(c0, c1 comm.Comm, msgBytes, iters int) (float64, error) {
	errc := make(chan error, 1)
	exchange := func(c comm.Comm, n int) error {
		sbuf := make([]byte, msgBytes)
		rbuf := make([]byte, msgBytes)
		for i := 0; i < n; i++ {
			if _, err := comm.SendRecv(c, 1-c.Rank(), sbuf, 1-c.Rank(), rbuf, bwTag); err != nil {
				return err
			}
		}
		return nil
	}
	go func() { errc <- exchange(c1, 1+iters) }()
	if err := exchange(c0, 1); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := exchange(c0, iters); err != nil {
		return 0, err
	}
	elapsed := time.Since(t0)
	if err := <-errc; err != nil {
		return 0, err
	}
	return float64(msgBytes) * float64(iters) / elapsed.Seconds() / 1e6, nil
}

// deliveryCounter is what the mem, shm and tcp handles expose of their
// matcher's in-place/staged accounting.
type deliveryCounter interface {
	DeliveryStats() (inPlace, staged match.Deliveries)
}

// pairExchange measures exchangeBW over a fresh two-rank world and adds
// how its messages were delivered to the two counters.
func pairExchange(c0, c1 comm.Comm, msgBytes, iters int, inPlace, staged *float64) (float64, error) {
	bw, err := exchangeBW(c0, c1, msgBytes, iters)
	for _, c := range []comm.Comm{c0, c1} {
		ip, st := c.(deliveryCounter).DeliveryStats()
		*inPlace += float64(ip.Msgs)
		*staged += float64(st.Msgs)
	}
	return bw, err
}

// bestOf returns the maximum bandwidth over runs invocations of measure.
func bestOf(runs int, measure func() (float64, error)) (float64, error) {
	best := 0.0
	for i := 0; i < runs; i++ {
		bw, err := measure()
		if err != nil {
			return 0, err
		}
		if bw > best {
			best = bw
		}
	}
	return best, nil
}

// loopbackAddr reserves a rendezvous anchor on 127.0.0.1.
func loopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// tcpPairBW builds a fresh p=2 loopback mesh with opts, measures the
// stream, and reports the sender's advertised port count alongside.
func tcpPairBW(opts tcp.Options, msgBytes, iters int) (float64, int, error) {
	addr, err := loopbackAddr()
	if err != nil {
		return 0, 0, err
	}
	procs := make([]*tcp.Proc, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			procs[r], errs[r] = tcp.Rendezvous(r, 2, addr, opts)
			done <- r
		}(r)
	}
	<-done
	<-done
	defer func() {
		for _, pr := range procs {
			if pr != nil {
				pr.Close()
			}
		}
	}()
	for r, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("rank %d rendezvous: %w", r, err)
		}
	}
	bw, err := streamBW(procs[0], procs[1], msgBytes, iters)
	if err != nil {
		return 0, 0, err
	}
	loc, _ := procs[1].Locality(procs[1].Rank())
	return bw, loc.Ports, nil
}

// bwShmOptions sizes the rings so a payload streams through the big ring in
// a few refills (the sizes cmd/gcarun uses).
var bwShmOptions = shm.Options{RingBytes: 256 << 10, BigBytes: 4 << 20}

// shmPairBW measures the shared-memory transport's one-way stream.
func shmPairBW(msgBytes, iters int) (float64, error) {
	w := shm.NewWorldOpts(2, bwShmOptions)
	defer w.Close()
	return streamBW(w.Comm(0), w.Comm(1), msgBytes, iters)
}

// memPairBW measures the in-process reference transport (an upper bound:
// one copy, no wire format).
func memPairBW(msgBytes, iters int) (float64, error) {
	w := mem.NewWorld(2)
	defer w.Close()
	return streamBW(w.Comm(0), w.Comm(1), msgBytes, iters)
}

// measureTransportBW fills the transport-bandwidth metrics, the pairwise
// exchange rows and the striping derivatives (speedups, tuned radix) on
// rep.
func (cfg Config) measureTransportBW(rep *HotpathReport) error {
	const stripes = 4
	const huge, big, mid = 16 << 20, 1 << 20, 256 << 10
	runs, hugeIters, bigIters, midIters := 3, 8, 48, 96
	if cfg.Quick {
		runs, hugeIters, bigIters, midIters = 2, 3, 12, 24
	}
	single := tcp.Options{Timeout: 30 * time.Second}
	striped := tcp.Options{Timeout: 30 * time.Second, Stripes: stripes, StripeThreshold: 64 << 10}

	var err error
	rep.Metrics.MemBW1MiBMBps, err = bestOf(runs, func() (float64, error) { return memPairBW(big, bigIters) })
	if err != nil {
		return fmt.Errorf("mem bw: %w", err)
	}
	rep.Metrics.ShmBW1MiBMBps, err = bestOf(runs, func() (float64, error) { return shmPairBW(big, bigIters) })
	if err != nil {
		return fmt.Errorf("shm bw: %w", err)
	}
	m := &rep.Metrics
	for _, row := range []struct {
		out          *float64
		shm          bool
		bytes, iters int
	}{
		{&m.MemExch1MiBMBps, false, big, bigIters},
		{&m.MemExch16MiBMBps, false, huge, hugeIters},
		{&m.ShmExch1MiBMBps, true, big, bigIters},
		{&m.ShmExch16MiBMBps, true, huge, hugeIters},
	} {
		*row.out, err = bestOf(runs, func() (float64, error) {
			if row.shm {
				w := shm.NewWorldOpts(2, bwShmOptions)
				defer w.Close()
				return pairExchange(w.Comm(0), w.Comm(1), row.bytes, row.iters, &m.ShmExchInPlace, &m.ShmExchStaged)
			}
			w := mem.NewWorld(2)
			defer w.Close()
			return pairExchange(w.Comm(0), w.Comm(1), row.bytes, row.iters, &m.MemExchInPlace, &m.MemExchStaged)
		})
		if err != nil {
			return fmt.Errorf("exchange %d bytes (shm %v): %w", row.bytes, row.shm, err)
		}
	}
	rep.Metrics.TCPBW256KiBMBps, err = bestOf(runs, func() (float64, error) {
		bw, _, err := tcpPairBW(single, mid, midIters)
		return bw, err
	})
	if err != nil {
		return fmt.Errorf("tcp bw 256KiB: %w", err)
	}
	rep.Metrics.TCPBW1MiBMBps, err = bestOf(runs, func() (float64, error) {
		bw, _, err := tcpPairBW(single, big, bigIters)
		return bw, err
	})
	if err != nil {
		return fmt.Errorf("tcp bw 1MiB: %w", err)
	}
	ports := 0
	rep.Metrics.TCPStripedBW256KiBMBps, err = bestOf(runs, func() (float64, error) {
		bw, pp, err := tcpPairBW(striped, mid, midIters)
		ports = pp
		return bw, err
	})
	if err != nil {
		return fmt.Errorf("striped tcp bw 256KiB: %w", err)
	}
	rep.Metrics.TCPStripedBW1MiBMBps, err = bestOf(runs, func() (float64, error) {
		bw, _, err := tcpPairBW(striped, big, bigIters)
		return bw, err
	})
	if err != nil {
		return fmt.Errorf("striped tcp bw 1MiB: %w", err)
	}

	rep.NumCPU = runtime.NumCPU()
	rep.StripeCount = stripes
	if rep.Metrics.TCPBW256KiBMBps > 0 {
		rep.StripeSpeedup256KiB = rep.Metrics.TCPStripedBW256KiBMBps / rep.Metrics.TCPBW256KiBMBps
	}
	if rep.Metrics.TCPBW1MiBMBps > 0 {
		rep.StripeSpeedup1MiB = rep.Metrics.TCPStripedBW1MiBMBps / rep.Metrics.TCPBW1MiBMBps
	}

	// The striped mesh advertises its connection count as Locality.Ports;
	// fed through the paper's guidelines (§VI-F) that port count becomes
	// the recursive-multiplying radix — tuned k tracks the stripe count.
	rep.TunedKAtStripes = recommendedAllreduceK(ports)
	return nil
}

// recommendedAllreduceK returns the allreduce radix the turnkey tuning
// table picks for a machine with the given NIC port count.
func recommendedAllreduceK(ports int) int {
	spec := machine.Spec{Name: "loopback-striped", Nodes: 2, PPN: 1, Ports: ports}
	tab := tuning.Recommended(spec, 8)
	for _, e := range tab.Ops[core.OpAllreduce.String()] {
		if e.Alg == "allreduce_recmul" {
			return e.K
		}
	}
	return 0
}
