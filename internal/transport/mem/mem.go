// Package mem provides an in-process implementation of comm.Comm: every
// rank is a goroutine inside one OS process. A World is nothing but p
// match.Engines — the same (source, tag) matcher tcp and shm deliver into —
// plus the rank-kill flags: Send delivers straight into the destination
// rank's engine — copied once into the receive's buffer when that is
// already posted, staged in a pool buffer when not — Recv and Irecv post
// on the caller's own, and SendRecv is the engine's receive-first
// exchange. Matching, FIFO, eager buffering, truncation,
// deadlines, purge and peer-death semantics are therefore internal/
// transport/match's, not this package's.
//
// This substrate provides real parallelism and real data movement, so it is
// the primary vehicle for correctness tests, property tests, and wall-clock
// testing.B benchmarks. For fault-tolerance testing it also implements the
// comm capability interfaces: Deadliner (per-op timeouts with full
// cancellation), FailureDetector (driven by World.Kill, the test harness's
// rank-kill switch), Purger (tag-window quiesce) and, once SetLocality has
// declared a layout, Locator.
//
// The hot path is allocation-slim: eager payload copies come from the
// internal/buf pool and return to it once consumed, successful sends share
// one immutable request, a blocking Recv or SendRecv allocates nothing and
// an Irecv exactly one object.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/transport/match"
)

// World is a set of p ranks sharing an address space: one matching engine
// per rank.
type World struct {
	engines []*match.Engine
	dead    []atomic.Bool // set by Kill; read by every handle

	ppn   atomic.Int64 // synthetic ranks-per-node; 0 = no locality declared
	ports atomic.Int64 // synthetic NIC ports per node
}

// NewWorld creates a world with p ranks. p must be >= 1.
func NewWorld(p int) *World {
	if p < 1 {
		panic("mem: world size must be >= 1")
	}
	w := &World{engines: make([]*match.Engine, p), dead: make([]atomic.Bool, p)}
	for i := range w.engines {
		w.engines[i] = match.New()
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return len(w.engines) }

// Comm returns rank r's communicator handle. Each rank must drive its own
// handle from a single goroutine (MPI semantics); distinct ranks may run
// concurrently.
func (w *World) Comm(rank int) comm.Comm {
	if rank < 0 || rank >= len(w.engines) {
		panic(fmt.Sprintf("mem: rank %d out of range [0,%d)", rank, len(w.engines)))
	}
	return &memComm{world: w, rank: rank}
}

// SetLocality declares a synthetic node layout for the world: contiguous
// blocks of ppn ranks per "node", with the given NIC port count (0 =
// unknown). All ranks of a mem world share one process, so locality here
// is a test/benchmark fiction — but it makes every handle implement
// comm.Locator exactly like the distributed transports, so the
// topology-aware composition path is exercisable in-process. ppn < 1
// withdraws the declaration.
func (w *World) SetLocality(ppn, ports int) {
	if ppn < 1 {
		ppn = 0
	}
	w.ppn.Store(int64(ppn))
	w.ports.Store(int64(ports))
}

// Kill simulates the fail-stop death of one rank: its own subsequent
// operations fail with ErrClosed (the process is gone), every other rank's
// receives pending on it fail with ErrPeerDead, and future receives from it
// fail fast once its already-buffered messages are drained. Sends addressed
// to it fail with ErrPeerDead. Kill is the mem world's failure-injection
// switch for the chaos tests; it is safe to call from any goroutine and is
// idempotent.
func (w *World) Kill(rank int) {
	if rank < 0 || rank >= len(w.engines) {
		panic(fmt.Sprintf("mem: kill rank %d out of range [0,%d)", rank, len(w.engines)))
	}
	if w.dead[rank].Swap(true) {
		return
	}
	// The dying rank's own pending receives release with ErrClosed.
	w.engines[rank].Fail(comm.ErrClosed)
	err := fmt.Errorf("%w: rank %d killed", comm.ErrPeerDead, rank)
	for r, e := range w.engines {
		if r != rank {
			e.FailPeer(rank, err)
		}
	}
}

// Close shuts the world down; subsequent operations return ErrClosed and
// blocked receives are released with ErrClosed. A closed world is one in
// which every rank is dead: the flags are what Send consults.
func (w *World) Close() {
	for r, e := range w.engines {
		w.dead[r].Store(true)
		e.Fail(comm.ErrClosed)
	}
}

// Run executes fn once per rank, each on its own goroutine, and returns the
// first non-nil error (all goroutines are joined first). If any rank fails,
// the world is closed so peers blocked on receives from the failed rank are
// released with ErrClosed instead of hanging (the moral equivalent of
// MPI_Abort).
func (w *World) Run(fn func(c comm.Comm) error) error {
	errs := w.RunAll(func(c comm.Comm) error {
		err := fn(c)
		if err != nil {
			w.Close()
		}
		return err
	})
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// RunAll executes fn once per rank like Run, but never closes the world on
// a rank's error and returns every rank's terminal error. Fault-tolerance
// tests use it: a failing collective must not take the world down, because
// the surviving ranks go on to agree, shrink, and continue.
func (w *World) RunAll(fn func(c comm.Comm) error) []error {
	errs := make([]error, w.Size())
	var wg sync.WaitGroup
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	return errs
}

// memComm is one rank's view of a World.
type memComm struct {
	world     *World
	rank      int
	opTimeout time.Duration // per-op deadline; 0 = unbounded
}

func (c *memComm) Rank() int         { return c.rank }
func (c *memComm) Size() int         { return c.world.Size() }
func (c *memComm) ChargeCompute(int) {}

// SetOpTimeout implements comm.Deadliner for this handle.
func (c *memComm) SetOpTimeout(d time.Duration) { c.opTimeout = d }

// Failed implements comm.FailureDetector: the ranks killed so far, as this
// rank's engine recorded them. The mem world's detector is a perfect
// oracle (Kill has told every engine by the time it returns), the
// strongest detector the agreement layer can be tested against.
func (c *memComm) Failed() []int { return c.world.engines[c.rank].FailedPeers() }

// PurgeTags implements comm.Purger for this rank's engine.
func (c *memComm) PurgeTags(lo, hi comm.Tag) {
	c.world.engines[c.rank].PurgeTags(lo, hi)
}

// Locality implements comm.Locator once SetLocality has declared a
// synthetic layout: rank r lives on node r/ppn at local rank r%ppn.
func (c *memComm) Locality(rank int) (comm.Locality, bool) {
	ppn := int(c.world.ppn.Load())
	if ppn < 1 || rank < 0 || rank >= c.Size() {
		return comm.Locality{}, false
	}
	return comm.Locality{
		Node:      rank / ppn,
		LocalRank: rank % ppn,
		PPN:       ppn,
		Ports:     int(c.world.ports.Load()),
	}, true
}

func (c *memComm) Send(to int, tag comm.Tag, b []byte) error {
	if err := comm.CheckPeer(c.rank, to, c.Size()); err != nil {
		return err
	}
	if c.world.dead[c.rank].Load() {
		return comm.ErrClosed
	}
	if c.world.dead[to].Load() {
		return fmt.Errorf("%w: send to killed rank %d", comm.ErrPeerDead, to)
	}
	return c.world.engines[to].DeliverTo(c.rank, tag, len(b), func(dst []byte) error {
		copy(dst, b)
		return nil
	})
}

// SendRecv implements comm.SendRecver: the engine's receive-first exchange.
func (c *memComm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	if err := comm.CheckPeer(c.rank, from, c.Size()); err != nil {
		return 0, err
	}
	return c.world.engines[c.rank].Exchange(from, tag, recvBuf, c.opTimeout, func() error {
		return c.Send(to, tag, sendBuf)
	})
}

// DeliveryStats reports how this rank's inbound messages reached their
// receives (see match.Engine.DeliveryStats).
func (c *memComm) DeliveryStats() (inPlace, staged match.Deliveries) {
	return c.world.engines[c.rank].DeliveryStats()
}

func (c *memComm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	if err := comm.CheckPeer(c.rank, from, c.Size()); err != nil {
		return 0, err
	}
	return c.world.engines[c.rank].Recv(from, tag, buf, c.opTimeout)
}

func (c *memComm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	if err := c.Send(to, tag, buf); err != nil {
		return nil, err
	}
	return match.Sent, nil
}

func (c *memComm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	if err := comm.CheckPeer(c.rank, from, c.Size()); err != nil {
		return nil, err
	}
	e := c.world.engines[c.rank]
	pr, err := e.Post(from, tag, buf)
	if err != nil {
		return nil, err
	}
	return e.Request(pr, from, tag, c.opTimeout), nil
}
