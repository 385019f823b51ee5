// Package comm defines the communicator abstraction that every collective
// algorithm in this repository is written against.
//
// The interface mirrors the MPI point-to-point layer that MPICH collective
// algorithms are built on: blocking Send/Recv, nonblocking Isend/Irecv with
// Wait, (source, tag) matching with FIFO ordering per (source, tag) pair,
// and eager buffering so a blocking Send never deadlocks against a matching
// Recv posted later.
//
// Four substrates implement Comm:
//
//   - transport/mem:  N ranks as goroutines inside one process (real
//     parallelism, used for correctness tests and wall-clock benchmarks);
//   - transport/tcp:  N OS processes over TCP (used by cmd/gcarun);
//   - transport/shm:  N OS processes over one shared-memory region;
//   - simnet:         a deterministic discrete-event simulator of an
//     exascale machine (used to regenerate the paper's figures).
//
// The three real transports share one (source, tag) matcher,
// transport/match, so the point-to-point semantics above are defined once;
// the simulator matches inside its event kernel. Collective algorithms
// live in internal/core and never know which substrate they run on.
//
// # Capabilities and wrappers
//
// Beyond Comm, a substrate may offer optional capabilities, each a small
// interface probed by type assertion: Clock (virtual time), Deadliner
// (per-op timeouts), FailureDetector, Locator (rank → node), Purger
// (tag-window quiesce), SendRecver (one-call exchange), and Tester on its
// Requests. ClockProber exists because a wrapper's method set is static:
// a wrapper always has a Now method, and HasClock says whether a clock
// really backs it — ask through VirtualClock, never a bare Clock assertion.
//
// Everything layered on a Comm — SubComm, Namespace, the metrics, flight,
// trace, fault-tolerance, fault-injection and topology-level wrappers —
// embeds Forward, which resolves the wrapped communicator's capabilities
// once and passes every one of them through; a wrapper writes only its
// data path and the methods it genuinely transforms. Walk follows the
// wrappers' Unwrap chain for the things that are attachments rather than
// capabilities (a metrics registry, a flight recorder). To add a wrapper:
// embed Forward, override only what you translate, and call
// transporttest.CheckWrapper from its package's tests.
package comm

import (
	"errors"
	"fmt"
	"time"
)

// Tag identifies a message stream between two ranks. Matching is on the
// exact (source, tag) pair; there are no wildcards, which keeps all three
// substrates deterministic.
type Tag int32

// Reserved tag ranges. Collective algorithms use tags derived from these
// bases so that point-to-point traffic issued by user code (tags >= TagUser)
// can never match collective-internal messages.
//
// Tag-space layout (the epoch convention):
//
//	[TagUser, TagCollBase)      application point-to-point traffic
//	[TagCollBase, TagNBCBase)   blocking collectives (internal/core): each
//	                            algorithm family owns a fixed base
//	                            (TagCollBase + 0x000, +0x100, ... +0xf00)
//	                            and all rounds of one call share it —
//	                            per-(source, tag) FIFO ordering makes that
//	                            safe because a rank runs at most one
//	                            blocking collective at a time.
//	[TagNBCBase, TagFTBase)     nonblocking collectives (internal/nbc).
//	[TagFTBase, TagFTEpochBase) fault-tolerance control traffic: the
//	                            error-agreement rounds of internal/ft.
//	[TagFTEpochBase, ...)       re-homed blocking-collective windows for
//	                            fault-tolerant sessions: after an agreed
//	                            failure the communicator's collective
//	                            epoch is retired, and the next collective
//	                            runs its family tags inside a fresh
//	                            FTEpochStride-sized window so stragglers
//	                            from the aborted epoch can never match.
//
// Nonblocking collectives can be outstanding concurrently, so sharing one
// family base would cross-match their traffic. Instead every started
// collective is assigned an issue epoch e — a per-communicator counter
// that is identical on all ranks because MPI-3 requires nonblocking
// collectives to be issued in the same order everywhere — and its
// messages use the sub-range
//
//	[TagNBCBase + (e mod NBCTagEpochs)·NBCTagStride, ... + NBCTagStride)
//
// Epochs therefore never collide while fewer than NBCTagEpochs collectives
// are in flight, and the nbc engine force-completes its oldest request
// before reusing a wrapped epoch. User traffic at TagUser and blocking
// collectives at their family bases can never match NBC-internal messages.
const (
	// TagCollBase is the first tag reserved for collective-internal
	// messages. Each blocking algorithm family derives its tag as
	// TagCollBase + family offset.
	TagCollBase Tag = 1 << 20
	// TagNBCBase is the first tag reserved for nonblocking collectives.
	// It lies above every blocking family base (TagCollBase + 0xf00 — the
	// generalized-allreduce family of internal/core — is the highest in
	// use; +0xe00 is the vector collectives, +0xd00 the segmented
	// pipelines, +0xc00 the hierarchical composition engine's inter-level
	// hops, internal/topo).
	TagNBCBase Tag = TagCollBase + 0x10000
	// NBCTagStride is the number of tags each nonblocking-collective epoch
	// owns (one per schedule phase; no compiled schedule uses more).
	NBCTagStride = 16
	// NBCTagEpochs is the number of disjoint epoch sub-ranges before the
	// tag window wraps.
	NBCTagEpochs = 4096
	// TagFTBase is the first tag reserved for fault-tolerance control
	// traffic (the agreement rounds of internal/ft). It lies just above
	// the nonblocking-collective range, which ends at
	// TagNBCBase + NBCTagEpochs·NBCTagStride.
	TagFTBase Tag = TagNBCBase + NBCTagEpochs*NBCTagStride
	// FTTagSeqs is the number of disjoint agreement-sequence tags before
	// the fault-tolerance control window wraps. Successive agreements on
	// one communicator use successive tags so a late agreement message
	// can never match a newer round.
	FTTagSeqs = 4096
	// TagFTEpochBase is the first tag of the re-homed blocking-collective
	// windows used by fault-tolerant sessions after a quiesce: collective
	// epoch e >= 1 maps family tag t to
	// TagFTEpochBase + ((e-1) mod FTEpochs)·FTEpochStride + (t - TagCollBase).
	TagFTEpochBase Tag = TagFTBase + FTTagSeqs
	// FTEpochStride is the tag width of one retired-epoch window; it
	// covers every blocking family base (the highest in use is
	// TagCollBase + 0xf00, internal/core's generalized-allreduce family).
	FTEpochStride = 0x1000
	// FTEpochs is the number of disjoint collective-epoch windows before
	// the fault-tolerance tag space wraps.
	FTEpochs = 1024
	// TagFlightBase is the first tag of the flight-recorder collection
	// window (internal/flight): the clock-offset probe ping/pong pair and
	// the ring-gather stream run root <-> rank over these tags. The window
	// sits above the last fault-tolerance epoch window, so collection — a
	// collective that runs after (or between) application collectives —
	// can never match straggler traffic from any other subsystem.
	TagFlightBase Tag = TagFTEpochBase + FTEpochs*FTEpochStride
	// FlightTagWidth is the number of tags the collection window owns.
	FlightTagWidth = 16
	// TagUser is the start of the range available to applications.
	TagUser Tag = 0

	// NamespaceBase is the first tag of the session-namespace region used
	// by the multi-tenant service layer (internal/svc): each namespace
	// slot owns a NamespaceStride-wide window above every singleton-session
	// range, and a Namespace wrapper translates a whole session tag layout
	// — user point-to-point, blocking-collective families, nonblocking
	// epochs, fault-tolerance control and epoch windows, and the flight
	// collection window — into its slot. Sessions in distinct slots can
	// therefore share one transport without any possibility of a tag match
	// across tenants.
	NamespaceBase Tag = 1 << 23
	// NamespaceStride is the tag width of one namespace slot.
	NamespaceStride = 1 << 19
	// NamespaceSlots is the number of disjoint namespace windows that fit
	// between NamespaceBase and the top of the signed-32-bit tag space —
	// 4080 concurrently isolated sessions per shared transport.
	NamespaceSlots = int((1<<31 - int64(NamespaceBase)) / NamespaceStride)
	// NamespaceFTEpochs is the number of fault-tolerance epoch windows a
	// namespace slot keeps distinct before re-use (the full FTEpochs space
	// does not fit in a slot; 64 concurrently straggling retired epochs is
	// far beyond what the purge-on-advance discipline can leave behind).
	NamespaceFTEpochs = 64
	// NamespaceUserTags is the number of application point-to-point tags
	// ([TagUser, NamespaceUserTags)) a namespace slot carries.
	NamespaceUserTags = 4096
)

// Errors returned by communicator operations.
var (
	// ErrRankOutOfRange reports a peer rank outside [0, Size).
	ErrRankOutOfRange = errors.New("comm: rank out of range")
	// ErrTruncated reports a receive buffer smaller than the matched message.
	ErrTruncated = errors.New("comm: message truncated (recv buffer too small)")
	// ErrClosed reports use of a communicator after Close/shutdown.
	ErrClosed = errors.New("comm: communicator closed")
	// ErrDeadlock is returned by the simulator when every rank is blocked
	// on a receive that can never be matched.
	ErrDeadlock = errors.New("comm: deadlock detected (all ranks blocked)")
	// ErrSelfMessage reports a send or receive addressed to the caller
	// itself; algorithms must special-case local data movement.
	ErrSelfMessage = errors.New("comm: send/recv to self not supported")
	// ErrTimeout reports a blocking operation that exceeded the per-op
	// deadline configured through Deadliner.SetOpTimeout (or a context
	// deadline plumbed down to it). The operation is cancelled: a timed-out
	// receive's buffer will not be written afterwards.
	ErrTimeout = errors.New("comm: operation timed out")
	// ErrPeerDead reports an operation addressed to (or waiting on) a rank
	// the transport knows has failed — its process exited, its connection
	// dropped, or its heartbeats stopped.
	ErrPeerDead = errors.New("comm: peer process failed")
)

// Request is the handle for a nonblocking operation. Wait blocks until the
// operation completes and returns its terminal status. Wait is idempotent:
// further calls return the same result. For receives, Len reports the number
// of bytes of the matched message after Wait has returned.
type Request interface {
	// Wait blocks until the operation completes.
	Wait() error
	// Len returns the size in bytes of the completed message. It must be
	// called only after Wait has returned nil. Only receives are required
	// to report a byte count; a transport may return 0 for sends (eager
	// transports share one completed request across all sends rather than
	// allocating per-send state).
	Len() int
}

// Tester is optionally implemented by Requests that support nonblocking
// completion polling (the MPI_Test idiom). Test never blocks: it reports
// whether the operation has completed, and — once done is true — the
// operation's terminal status. Like Wait, Test is idempotent after
// completion, and a completed Test consumes the operation exactly as Wait
// would (calling Wait afterwards returns the same result immediately).
//
// All three built-in substrates implement Tester. The nbc progress engine
// uses it opportunistically via TryTest and degrades to blocking Wait in a
// canonical order when a Request does not support it, so third-party
// transports remain usable.
type Tester interface {
	Test() (done bool, err error)
}

// TryTest polls req for completion if it supports Tester. ok reports
// whether the request supported polling at all; when ok is false, done and
// err are meaningless and the caller must fall back to Wait.
func TryTest(req Request) (done bool, err error, ok bool) {
	t, ok := req.(Tester)
	if !ok {
		return false, nil, false
	}
	done, err = t.Test()
	return done, err, true
}

// Comm is a group of p ranks that can exchange messages. Implementations
// must be safe for each rank to drive from its own goroutine, but a single
// rank's operations are issued sequentially (MPI semantics).
type Comm interface {
	// Rank returns the caller's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the communicator.
	Size() int

	// Send delivers buf to rank `to` with tag `tag`. Eager semantics: the
	// implementation buffers the message, so Send returns without waiting
	// for the matching Recv. buf may be reused once Send returns.
	Send(to int, tag Tag, buf []byte) error
	// Recv blocks until a message from rank `from` with tag `tag` arrives
	// and copies it into buf, returning the message length.
	Recv(from int, tag Tag, buf []byte) (int, error)

	// Isend starts a nonblocking send. buf must not be modified until the
	// returned Request's Wait returns.
	Isend(to int, tag Tag, buf []byte) (Request, error)
	// Irecv starts a nonblocking receive into buf. buf must not be read
	// until the returned Request's Wait returns.
	Irecv(from int, tag Tag, buf []byte) (Request, error)

	// ChargeCompute accounts for local computation over n bytes (the γ term
	// of the paper's cost model, e.g. applying a reduction operator).
	// Real transports treat it as a no-op; the simulator advances the
	// calling rank's virtual clock by γ·n.
	ChargeCompute(n int)
}

// Clock is implemented by substrates that track virtual time (the
// simulator). Figure harnesses assert this interface to read per-rank
// completion times.
type Clock interface {
	// Now returns the calling rank's current virtual time in seconds.
	Now() float64
}

// ClockProber is implemented by wrappers — every one that embeds Forward —
// which expose a Now method unconditionally but only forward to a virtual
// clock when one actually exists underneath. Code that changes behaviour
// based on virtual time must use VirtualClock, not a bare Clock type
// assertion, or a wrapper over a wall-clock transport would be mistaken
// for the simulator.
type ClockProber interface {
	// HasClock reports whether a virtual clock genuinely backs Now.
	HasClock() bool
}

// VirtualClock returns c's virtual clock when one genuinely exists:
// either c implements Clock natively, or it is a probing wrapper whose
// chain bottoms out at a real clock.
func VirtualClock(c Comm) (Clock, bool) {
	cl, ok := c.(Clock)
	if !ok {
		return nil, false
	}
	if p, ok := c.(ClockProber); ok && !p.HasClock() {
		return nil, false
	}
	return cl, true
}

// Deadliner is optionally implemented by communicators whose blocking
// operations can be bounded. After SetOpTimeout(d) with d > 0, any single
// blocking operation — a Send that cannot drain, a Recv or Request.Wait
// with no matching message — fails with an error wrapping ErrTimeout
// instead of hanging when a peer is dead or wedged. d <= 0 restores
// unbounded blocking. The setting applies to operations issued by the
// calling rank's handle only and may be changed between operations.
//
// The mem, tcp and shm transports implement Deadliner through the shared
// matcher (with full cancellation: a timed-out receive is deregistered, so
// its buffer is never written later). The simulator does not — its
// discrete-event kernel already turns any global hang into ErrDeadlock
// deterministically. Through a wrapper over a substrate without deadlines
// SetOpTimeout is a no-op.
type Deadliner interface {
	SetOpTimeout(d time.Duration)
}

// FailureDetector is optionally implemented by communicators that track
// per-peer liveness (TCP and shm heartbeats, the mem world's rank-kill
// switch). Failed returns the ranks this rank currently knows to be dead,
// in ascending order (nil through a wrapper over a substrate without a
// detector). Knowledge is local and monotone: a rank reported
// failed stays failed. Use the internal/ft agreement protocol to turn
// these local views into a consistent global one.
type FailureDetector interface {
	Failed() []int
}

// Locality describes one rank's position in the machine: the node hosting
// it, its index among the ranks sharing that node, and the node-level
// resources the paper's selection guidelines key on (PPN, NIC ports).
type Locality struct {
	// Node identifies the rank's node. Substrates report a stable id that
	// is equal for co-located ranks and distinct across nodes; ids need
	// not be dense — internal/topo re-densifies them when it builds a map.
	Node int
	// LocalRank is the rank's index among the ranks on its node, counted
	// in ascending world-rank order.
	LocalRank int
	// PPN is the number of ranks sharing a node (the maximum over nodes
	// when the world size is not divisible).
	PPN int
	// Ports is the number of NIC ports per node (0 when unknown).
	Ports int
}

// Locator is optionally implemented by communicators that know the
// rank → node mapping of their world: the simulator (from its machine
// spec and placement), the TCP transport (host-keyed during rendezvous),
// the shm transport (one node by construction), and the mem world
// (declared synthetically for tests). Locality reports where `rank` lives;
// ok is false when the communicator has no locality knowledge for that
// rank. Wrappers report their inner communicator's answer (SubComm after
// translating the rank).
type Locator interface {
	Locality(rank int) (Locality, bool)
}

// LocalityOf queries c's locality knowledge for one rank, reporting
// (zero, false) when c does not implement Locator at all.
func LocalityOf(c Comm, rank int) (Locality, bool) {
	l, ok := c.(Locator)
	if !ok {
		return Locality{}, false
	}
	return l.Locality(rank)
}

// Purger is optionally implemented by communicators that can quiesce a
// retired tag window: PurgeTags discards every buffered (unexpected)
// inbound message whose tag lies in [lo, hi) and cancels any receive
// still posted in that range with ErrTimeout. The fault-tolerance layer
// calls it after an agreed collective failure so stragglers of the
// aborted epoch can never match a later collective.
type Purger interface {
	PurgeTags(lo, hi Tag)
}

// CheckPeer validates a peer rank for a p-rank communicator and rejects
// self-messaging. Shared by all transports.
func CheckPeer(self, peer, size int) error {
	if peer < 0 || peer >= size {
		return fmt.Errorf("%w: peer %d, size %d", ErrRankOutOfRange, peer, size)
	}
	if peer == self {
		return ErrSelfMessage
	}
	return nil
}

// WaitAll waits on every request (so no request is leaked mid-flight) and
// returns all errors encountered, combined with errors.Join — nil if every
// wait succeeded. Joining instead of dropping all but the first keeps
// instrumented failure counts consistent with the errors callers observe.
func WaitAll(reqs ...Request) error {
	var errs []error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if err := r.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// SendRecver is the capability of handling the whole SendRecv exchange in
// one call. The mem, shm and tcp transports implement it receive-first
// through the shared matcher (match.Engine.Exchange): the receive is
// posted before the send runs, so the partner's message is written
// straight into recvBuf instead of being staged, and a failed send
// withdraws the posted receive — recvBuf is never written after SendRecv
// returns. Every wrapper forwards it (translate or account, then SendRecv
// on the wrapped communicator), so the guarantee survives any stack; the
// flight recorder's wrapper additionally amortizes one clock read across
// the exchange's trace events.
type SendRecver interface {
	SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag Tag) (int, error)
}

// SendRecv performs a simultaneous exchange: a send of sendBuf to `to` and
// a receive of recvBuf from `from`, both with tag `tag` — the MPI_Sendrecv
// idiom used by ring and pairwise-exchange algorithms. A SendRecver does it
// natively. The fallback for any other communicator sends first and then
// receives: without a way to withdraw a posted receive it cannot safely
// post first (a failed send would leave a receive behind that a late
// message could still write through), and Isend rather than Send avoids the
// head-to-head deadlock of two blocking sends on rendezvous transports.
func SendRecv(c Comm, to int, sendBuf []byte, from int, recvBuf []byte, tag Tag) (int, error) {
	if sr, ok := c.(SendRecver); ok {
		return sr.SendRecv(to, sendBuf, from, recvBuf, tag)
	}
	sreq, err := c.Isend(to, tag, sendBuf)
	if err != nil {
		return 0, err
	}
	n, rerr := c.Recv(from, tag, recvBuf)
	serr := sreq.Wait()
	if rerr != nil {
		return n, rerr
	}
	return n, serr
}
