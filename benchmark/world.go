package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/transport/mem"
	"exacoll/internal/transport/shm"
	"exacoll/internal/transport/tcp"
)

// world is p bare transport endpoints in this process, one per rank, each
// driven by its own goroutine. All three real transports are reached
// through it, so the step loop and the ladder are written once.
type world struct {
	kind  string
	comms []comm.Comm
	close func()
	once  sync.Once
}

func (w *world) Close() { w.once.Do(w.close) }

// newMemWorld builds the in-process transport; ppn > 0 declares a synthetic
// node layout for topology-aware sessions.
func newMemWorld(p, ppn int) (*world, error) {
	mw := mem.NewWorld(p)
	if ppn > 0 {
		mw.SetLocality(ppn, 1)
	}
	w := &world{kind: "mem", comms: make([]comm.Comm, p), close: mw.Close}
	for r := range w.comms {
		w.comms[r] = mw.Comm(r)
	}
	return w, nil
}

// shmOptions are the ring sizes cmd/gcarun uses for multi-process runs,
// not the test-sized rings of shm.NewWorld: the large-message workload
// must stream through production-sized rings.
var shmOptions = shm.Options{RingBytes: 256 << 10, BigBytes: 4 << 20}

// newShmWorld maps one shared-memory region and attaches every rank to it.
// The shm package reports region set-up failures by panicking; they are
// environment errors (no space in /dev/shm), so they come back as errors.
func newShmWorld(p int) (w *world, err error) {
	defer func() {
		if r := recover(); r != nil {
			w, err = nil, fmt.Errorf("shm world: %v", r)
		}
	}()
	sw := shm.NewWorldOpts(p, shmOptions)
	w = &world{kind: "shm", comms: make([]comm.Comm, p), close: sw.Close}
	for r := range w.comms {
		w.comms[r] = sw.Comm(r)
	}
	return w, nil
}

// newTCPWorld forms a p-rank mesh over loopback sockets with the real
// rendezvous protocol: rank 0 listens, the others dial, every pair opens
// `stripes` connections.
func newTCPWorld(p, stripes int) (*world, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp world: reserve port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("tcp world: release port: %w", err)
	}
	opts := tcp.Options{Timeout: 30 * time.Second, Stripes: stripes}
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
	closeAll := func() {
		for _, pr := range procs {
			if pr != nil {
				pr.Close()
			}
		}
	}
	for r, err := range errs {
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("tcp world: rank %d rendezvous: %w", r, err)
		}
	}
	w := &world{kind: "tcp", comms: make([]comm.Comm, p), close: closeAll}
	for r, pr := range procs {
		w.comms[r] = pr
	}
	return w, nil
}
