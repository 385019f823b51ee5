// Package faulty wraps a comm.Comm with deterministic fault injection for
// testing error propagation: after a configured number of operations, the
// wrapped communicator starts failing every call. Collective algorithms
// must surface the error (never hang, never return corrupted success) —
// the property the error-path tests in internal/core assert across every
// algorithm in the registry.
//
// Faults are deterministic budgets rather than random drops: a Budget
// allows n successful operations world-wide and fails every one after it,
// so a shrinking budget sweeps the failure point across every send (or
// receive) of a collective. Send faults surface at post time (Send/Isend
// return ErrInjected); receive faults surface at completion (Recv returns
// ErrInjected, and a wrapped Irecv request delivers it through Wait/Test)
// — the two places a real transport reports link failures. An optional
// Delay stretches every operation to widen race windows in overlap tests.
//
// Alongside the deterministic budgets, seeded probabilistic faults
// (SendProb/RecvProb) fail each operation independently with a fixed
// probability, and Jitter adds a random extra delay per operation — the
// chaos-style load for soak tests. The random stream is derived from
// Options.Seed and the wrapped communicator's rank, so a failing run
// replays exactly from its seed. Every injected error wraps ErrInjected,
// so errors.Is(err, ErrInjected) holds through comm.WaitAll and the
// nonblocking engine's WaitAllColl.
package faulty

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"exacoll/internal/comm"
)

// ErrInjected is the failure surfaced once the budget is exhausted.
var ErrInjected = errors.New("faulty: injected failure")

// Budget is the shared countdown across all ranks of one world: each
// counted operation decrements it, and operations after it hits zero fail.
type Budget struct {
	remaining atomic.Int64
}

// NewBudget allows n successful operations world-wide.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.remaining.Store(int64(n))
	return b
}

// spend returns an error wrapping ErrInjected when the budget is
// exhausted.
func (b *Budget) spend() error {
	if b.remaining.Add(-1) < 0 {
		return fmt.Errorf("%w: operation budget exhausted", ErrInjected)
	}
	return nil
}

// Options configures the injected faults. Zero values inject nothing.
type Options struct {
	// Send makes sends fail at post time once exhausted.
	Send *Budget
	// Recv makes receives fail at completion once exhausted: blocking
	// Recv returns ErrInjected, and Irecv requests surface it through
	// Wait/Test after the underlying receive completes.
	Recv *Budget
	// Delay is added to every operation before it is forwarded,
	// simulating a slow link (wall-clock substrates only).
	Delay time.Duration

	// Seed fixes the per-rank random stream behind SendProb, RecvProb,
	// and Jitter, so chaos runs replay deterministically. Two wrapped
	// communicators with the same seed and rank draw identical streams.
	Seed int64
	// SendProb fails each send independently with this probability at
	// post time (0 disables, 1 fails everything).
	SendProb float64
	// RecvProb fails each receive independently with this probability at
	// completion, like the Recv budget.
	RecvProb float64
	// Jitter adds a uniformly random extra delay in [0, Jitter) to every
	// operation, on top of the fixed Delay.
	Jitter time.Duration
}

func (o Options) needRNG() bool {
	return o.SendProb > 0 || o.RecvProb > 0 || o.Jitter > 0
}

// New returns a communicator injecting the configured faults around c.
func New(c comm.Comm, o Options) comm.Comm {
	f := &faultyComm{Forward: comm.NewForward(c), opts: o}
	if o.needRNG() {
		// Mix the rank into the seed (splitmix-style odd constant) so
		// ranks draw distinct but individually reproducible streams.
		mixed := uint64(o.Seed) ^ (uint64(c.Rank()+1) * 0x9e3779b97f4a7c15)
		f.rng = rand.New(rand.NewSource(int64(mixed)))
	}
	return f
}

// Wrap returns a communicator whose sends fail once the budget runs out.
// Receives are not failed directly (a real NIC fault manifests at the
// sender or as a missing message); the mem transport's failure handling
// releases any receives left orphaned by failed sends.
func Wrap(c comm.Comm, b *Budget) comm.Comm {
	return New(c, Options{Send: b})
}

// faultyComm injects faults around the data path only; every capability
// passes through (comm.Forward), so fault-tolerant sessions keep their
// deadline, detector and purge guarantees under injected chaos.
type faultyComm struct {
	comm.Forward
	opts Options

	rngMu sync.Mutex // rand.Rand is not goroutine-safe; ops may be concurrent
	rng   *rand.Rand
}

// draw samples one uniform variate from the per-rank stream.
func (f *faultyComm) draw() float64 {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return f.rng.Float64()
}

func (f *faultyComm) delay() {
	d := f.opts.Delay
	if f.opts.Jitter > 0 {
		d += time.Duration(f.draw() * float64(f.opts.Jitter))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// sendFault decides whether this send fails at post time: first the
// deterministic budget, then the probabilistic drop.
func (f *faultyComm) sendFault(to int, tag comm.Tag) error {
	if f.opts.Send != nil {
		if err := f.opts.Send.spend(); err != nil {
			return fmt.Errorf("%w (send to rank %d tag %d)", err, to, tag)
		}
	}
	if f.opts.SendProb > 0 && f.draw() < f.opts.SendProb {
		return fmt.Errorf("%w: probabilistic send fault to rank %d tag %d", ErrInjected, to, tag)
	}
	return nil
}

// recvFault decides whether a completed receive is failed retroactively.
func (f *faultyComm) recvFault(from int, tag comm.Tag) error {
	if f.opts.Recv != nil {
		if err := f.opts.Recv.spend(); err != nil {
			return fmt.Errorf("%w (recv from rank %d tag %d)", err, from, tag)
		}
	}
	if f.opts.RecvProb > 0 && f.draw() < f.opts.RecvProb {
		return fmt.Errorf("%w: probabilistic recv fault from rank %d tag %d", ErrInjected, from, tag)
	}
	return nil
}

// faultsRecvs reports whether receive-side injection is configured at all.
func (f *faultyComm) faultsRecvs() bool {
	return f.opts.Recv != nil || f.opts.RecvProb > 0
}

func (f *faultyComm) Send(to int, tag comm.Tag, buf []byte) error {
	f.delay()
	if err := f.sendFault(to, tag); err != nil {
		return err
	}
	return f.Unwrap().Send(to, tag, buf)
}

func (f *faultyComm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	f.delay()
	if err := f.sendFault(to, tag); err != nil {
		return nil, err
	}
	return f.Unwrap().Isend(to, tag, buf)
}

func (f *faultyComm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	f.delay()
	n, err := f.Unwrap().Recv(from, tag, buf)
	if err == nil {
		err = f.recvFault(from, tag)
	}
	return n, err
}

// SendRecv implements comm.SendRecver with the same two injection points
// as Isend followed by Recv: the send fault before anything is posted, the
// receive fault once the exchange has completed.
func (f *faultyComm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	f.delay()
	if err := f.sendFault(to, tag); err != nil {
		return 0, err
	}
	n, err := comm.SendRecv(f.Unwrap(), to, sendBuf, from, recvBuf, tag)
	if err == nil {
		err = f.recvFault(from, tag)
	}
	return n, err
}

func (f *faultyComm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	f.delay()
	req, err := f.Unwrap().Irecv(from, tag, buf)
	if err != nil {
		return nil, err
	}
	if !f.faultsRecvs() {
		return req, nil
	}
	return &faultyRecvReq{inner: req, owner: f, from: from, tag: tag}, nil
}

// faultyRecvReq applies receive-side injection when the underlying receive
// completes; the injected error (wrapping ErrInjected) surfaces from Wait
// and Test. The resolution is memoized so repeated Wait/Test calls observe
// the same terminal status (the comm.Request idempotency contract).
type faultyRecvReq struct {
	inner    comm.Request
	owner    *faultyComm
	from     int
	tag      comm.Tag
	resolved bool
	err      error
}

func (r *faultyRecvReq) resolve(err error) error {
	if !r.resolved {
		if err == nil {
			err = r.owner.recvFault(r.from, r.tag)
		}
		r.resolved, r.err = true, err
	}
	return r.err
}

func (r *faultyRecvReq) Wait() error {
	if r.resolved {
		return r.err
	}
	return r.resolve(r.inner.Wait())
}

// Test polls the underlying request when it supports polling; transports
// without comm.Tester report not-done, leaving completion to Wait.
func (r *faultyRecvReq) Test() (bool, error) {
	if r.resolved {
		return true, r.err
	}
	done, err, ok := comm.TryTest(r.inner)
	if !ok || !done {
		return false, nil
	}
	return true, r.resolve(err)
}

func (r *faultyRecvReq) Len() int { return r.inner.Len() }
