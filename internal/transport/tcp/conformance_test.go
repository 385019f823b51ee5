package tcp_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/transport/tcp"
	"exacoll/internal/transport/transporttest"
)

// freeAddrT reserves a loopback port for a rendezvous anchor.
func freeAddrT(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// meshWorld adapts a loopback mesh to the conformance
// harness's World surface.
type meshWorld struct {
	procs []*tcp.Proc
	once  sync.Once
}

func (w *meshWorld) Comm(rank int) comm.Comm { return w.procs[rank] }

func (w *meshWorld) Close() {
	w.once.Do(func() {
		for _, p := range w.procs {
			if p != nil {
				p.Close()
			}
		}
	})
}

// TestTableIConformanceStriped runs the Table I matrix over the striped
// TCP transport (4 connections per peer pair, 1 KiB striping threshold
// so even modest payloads cross the segment-reassembly path), comparing
// bit for bit against the mem reference. Striping must be invisible to
// every collective: segments reorder across connections, reassembly and
// in-order delivery restore exact MPI matching semantics.
func TestTableIConformanceStriped(t *testing.T) {
	if testing.Short() {
		t.Skip("striped conformance is the long-haul suite; covered by the shm/mem matrix in -short")
	}
	transporttest.RunTableI(t, stripedFactory)
}

// stripedFactory builds a 4-stripe loopback mesh with a 1 KiB striping
// threshold — the configuration both conformance matrices run against.
func stripedFactory(t *testing.T, p int) transporttest.World {
	return mesh(t, p, tcp.Options{Timeout: 20 * time.Second, Stripes: 4, StripeThreshold: 1 << 10})
}

// mesh forms a p-rank loopback world with opts.
func mesh(t *testing.T, p int, opts tcp.Options) transporttest.World {
	addr := freeAddrT(t)
	procs := make([]*tcp.Proc, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			procs[r], errs[r] = tcp.Rendezvous(r, p, addr, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d rendezvous: %v", r, err)
		}
	}
	return &meshWorld{procs: procs}
}

// TestInPlaceDelivery: on the single-connection wire a payload whose
// receive is already posted is read off the socket straight into it.
func TestInPlaceDelivery(t *testing.T) {
	w := mesh(t, 2, tcp.Options{Timeout: 20 * time.Second})
	defer w.Close()
	transporttest.CheckInPlace(t, w)
}

// TestVCollConformanceStriped runs the skewed-size vector-collective
// matrix over the same striped mesh: the 1032-byte unit blocks straddle
// the striping threshold, so ragged per-rank payloads mix striped and
// unstriped messages within a single collective.
func TestVCollConformanceStriped(t *testing.T) {
	if testing.Short() {
		t.Skip("striped conformance is the long-haul suite; covered by the shm/mem matrix in -short")
	}
	transporttest.RunVColl(t, stripedFactory)
}
