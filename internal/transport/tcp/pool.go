package tcp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"exacoll/internal/comm"
)

// Pool shares one Proc — one set of TCP links — among many sessions of a
// single process. Cotenant sessions between the same host pair would
// otherwise each hold a full mesh of sockets; through a pool they share
// the links and the demultiplexing engine, and keep themselves apart with
// disjoint tag windows (comm.Namespace over an acquired handle).
//
// The pool owns the Proc: it closes it when the last handle is released
// and the pool itself is closed, whichever comes last.
type Pool struct {
	proc *Proc

	mu     sync.Mutex
	refs   int
	closed bool
}

// NewPool takes ownership of proc.
func NewPool(proc *Proc) *Pool {
	return &Pool{proc: proc, refs: 1} // the pool's own reference
}

// Acquire returns a new shared handle. Handles are independent
// comm.Comms over the same links: each carries its own per-op deadline
// (comm.Deadliner), so one tenant's timeout choice never leaks into
// another's operations.
func (pl *Pool) Acquire() (*Shared, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed && pl.refs == 0 {
		return nil, fmt.Errorf("tcp: pool closed: %w", comm.ErrClosed)
	}
	pl.refs++
	return &Shared{Forward: comm.NewForward(pl.proc), proc: pl.proc, pool: pl}, nil
}

// Refs reports the number of live handles (excluding the pool's own
// reference).
func (pl *Pool) Refs() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := pl.refs
	if !pl.closed {
		n--
	}
	return n
}

// Close drops the pool's own reference; the Proc shuts down once every
// acquired handle has been released too.
func (pl *Pool) Close() error {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return nil
	}
	pl.closed = true
	pl.mu.Unlock()
	pl.release()
	return nil
}

func (pl *Pool) release() {
	pl.mu.Lock()
	pl.refs--
	last := pl.refs == 0
	pl.mu.Unlock()
	if last {
		pl.proc.Close()
	}
}

// Shared is one session's handle on a pooled Proc. The Proc's detector,
// purger and locator pass through (comm.Forward); the deadline does not —
// each handle carries its own, applied to its own operations. The engine
// is shared, so callers are expected to purge only tag windows they own (a
// session purges inside its namespace slot; the slot recycler purges a
// whole window).
type Shared struct {
	comm.Forward
	proc *Proc
	pool *Pool

	opTimeout atomic.Int64
	released  atomic.Bool
}

// Release returns the handle to the pool. Operations after Release fail
// once the underlying Proc closes; Release is idempotent.
func (s *Shared) Release() {
	if !s.released.Swap(true) {
		s.pool.release()
	}
}

// Send implements comm.Comm with this handle's deadline.
func (s *Shared) Send(to int, tag comm.Tag, buf []byte) error {
	return s.proc.send(to, tag, buf, time.Duration(s.opTimeout.Load()))
}

// Recv implements comm.Comm with this handle's deadline.
func (s *Shared) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	return s.proc.recv(from, tag, buf, time.Duration(s.opTimeout.Load()))
}

// Isend implements comm.Comm with this handle's deadline.
func (s *Shared) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return s.proc.isend(to, tag, buf, time.Duration(s.opTimeout.Load()))
}

// Irecv implements comm.Comm with this handle's deadline.
func (s *Shared) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return s.proc.irecv(from, tag, buf, time.Duration(s.opTimeout.Load()))
}

// SendRecv implements comm.SendRecver with this handle's deadline.
func (s *Shared) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	return s.proc.sendRecv(to, sendBuf, from, recvBuf, tag, time.Duration(s.opTimeout.Load()))
}

// SetOpTimeout implements comm.Deadliner for this handle only — the whole
// point of the pooled handle over a bare *Proc, whose deadline is global.
func (s *Shared) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.opTimeout.Store(int64(d))
}
