// Package elastic adds membership changes to the tcp transport: a world
// that can grow, shrink, and re-admit ranks across its lifetime.
//
// The design is re-rendezvous, not in-place surgery. Each membership is an
// epoch; every epoch's world is a brand-new tcp mesh formed through one
// persistent Anchor (the rank-0 process's listener, which outlives any
// single mesh). A membership change — admitting joiners, dropping the
// dead, or both — moves every continuing member through Regroup: form the
// epoch-(e+1) mesh, then fence the old incarnation by purging its entire
// tag space (comm.Purger) and closing it. Stragglers of the old epoch can
// reach nothing: their connections are gone, their tags purged, and a
// late re-dial of a retired epoch is answered wrong-epoch by the anchor.
//
// Outsiders enter through the anchor's admission queue: RequestJoin parks
// a connection until the anchor's owner grants a Ticket naming the rank,
// size, and epoch of the next formation — at which point the joiner is
// just another member of the new mesh, with a virgin tag space (epochs
// re-key rendezvous, so joiners and survivors agree trivially on tag
// state: there is none).
//
// One member hosts the anchor and must be rank 0 of every epoch. The
// anchor is no longer a permanent single point of failure: its rendezvous
// position (AnchorState) is a two-field snapshot a restarted process can
// resume from (HostWithState), and when the rank-0 process dies outright
// a survivor binds the address and takes over (Promote). Membership
// changes themselves are journaled transitions (BeginGrow / AdmitJoiners
// / RegroupTo / AbortGrow): a failure at any step leaves the old epoch
// intact, and a retry resumes the pending transition or cleanly restarts
// it at a later epoch.
package elastic

import (
	"fmt"
	"math"
	"sync"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/transport/tcp"
)

// growTxn journals one in-flight membership transition on the anchor
// host: the target epoch, the survivor count the transition was planned
// against, and how many joiners were planned and already ticketed. The
// journal is what makes Grow resumable — a retry after a failure before
// mesh formation picks up exactly where the last attempt stopped (the
// already-admitted joiners keep their tickets), while a retry after the
// survivor set changed aborts the stale transition (bouncing its ticket
// holders to re-request admission) and starts a fresh one at the next
// epoch.
type growTxn struct {
	target    uint64 // epoch the transition forms
	survivors int    // survivor count the plan assumed
	joiners   int    // joiners planned into the new world
	admitted  int    // joiners already holding tickets for target
}

// Member is one rank's handle on an elastic world. It implements
// comm.Comm (plus Deadliner, FailureDetector, Purger, Locator) by
// delegating to the current epoch's tcp endpoint, and swaps that endpoint
// on Regroup. A Member must not be used for communication concurrently
// with its own Regroup — a membership change is collective, like the
// collectives themselves.
type Member struct {
	addr   string
	opts   tcp.Options
	anchor *tcp.Anchor // non-nil on the anchor host (rank 0)

	mu    sync.RWMutex
	proc  *tcp.Proc
	epoch uint64

	pending *growTxn // in-flight transition journal (anchor host only)
}

// Host starts the anchor-owning member (rank 0 of every epoch): it opens
// the persistent listener at addr, forms the first world of p ranks at
// opts.Epoch, and keeps accepting join requests (up to joinCap queued)
// across all later epochs.
func Host(addr string, p, joinCap int, opts tcp.Options) (*Member, error) {
	return HostWithState(addr, p, joinCap, opts, tcp.AnchorState{})
}

// HostWithState restarts the anchor-owning member from a persisted anchor
// position — the anchor-recovery entry point. The world re-forms at the
// first epoch after everything the previous incarnation retired (or at
// opts.Epoch if that is later), so survivors and joiners retrying through
// the downtime land on a live formation instead of a retired epoch. A
// zero state is a fresh anchor.
func HostWithState(addr string, p, joinCap int, opts tcp.Options, st tcp.AnchorState) (*Member, error) {
	if st.HasRun && opts.Epoch <= st.DoneTo {
		opts.Epoch = st.DoneTo + 1
	}
	a, err := tcp.NewAnchorWithState(addr, joinCap, opts, st)
	if err != nil {
		return nil, err
	}
	proc, err := a.Rendezvous(p, opts.Epoch)
	if err != nil {
		a.Close()
		return nil, err
	}
	return &Member{addr: addr, opts: opts, anchor: a, proc: proc, epoch: opts.Epoch}, nil
}

// Dial starts a founding non-anchor member: rank (>= 1) of the first
// p-rank world at opts.Epoch, rendezvousing at the anchor's addr.
func Dial(addr string, rank, p int, opts tcp.Options) (*Member, error) {
	if rank < 1 {
		return nil, fmt.Errorf("elastic: rank 0 must Host the anchor")
	}
	proc, err := tcp.Rendezvous(rank, p, addr, opts)
	if err != nil {
		return nil, err
	}
	return &Member{addr: addr, opts: opts, proc: proc, epoch: opts.Epoch}, nil
}

// Join enters an existing world from outside: it asks the anchor for
// admission (blocking up to opts.Timeout for the next growth decision),
// then rendezvouses into the epoch its ticket names. The returned member
// is indistinguishable from one that was present from the start. A
// process whose earlier incarnation died re-enters the same way — under a
// new rank, in a new epoch, with nothing shared with its old self.
//
// Join retries through transient failure until opts.Timeout elapses:
// anchor downtime (dial refused until a restarted anchor re-binds),
// retryable bounces (the admission aged out, the transition the ticket
// named was aborted), and connection faults mid-protocol all restart the
// request from the top with backoff. The returned error is the last
// attempt's, so a persistent cause is visible.
func Join(addr string, opts tcp.Options) (*Member, error) {
	total := opts.Timeout
	if total <= 0 {
		total = 30 * time.Second
	}
	deadline := time.Now().Add(total)
	var lastErr error
	for attempt := 0; ; attempt++ {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("elastic: join timed out: %w", lastErr)
		}
		aopts := opts
		aopts.Timeout = remain
		ticket, err := tcp.RequestJoin(addr, aopts)
		if err == nil {
			topts := aopts
			topts.Epoch = ticket.Epoch
			var proc *tcp.Proc
			proc, err = tcp.Rendezvous(ticket.Rank, ticket.Size, addr, topts)
			if err == nil {
				return &Member{addr: addr, opts: opts, proc: proc, epoch: ticket.Epoch}, nil
			}
		}
		lastErr = err
		if d := tcp.JoinBackoff(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// Epoch returns the member's current membership epoch.
func (m *Member) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// IsAnchor reports whether this member hosts the anchor (rank 0).
func (m *Member) IsAnchor() bool { return m.anchor != nil }

// PendingJoins reports how many outsiders are queued for admission.
// Always 0 on non-anchor members — only rank 0 can see or admit joiners;
// the count becomes collective knowledge by broadcasting it (gca does).
func (m *Member) PendingJoins() int {
	if m.anchor == nil {
		return 0
	}
	return m.anchor.PendingJoins()
}

// BeginGrow opens (or resumes) a growth transition on the anchor host.
// It returns the target epoch the new world will form at and the joiner
// count planned into it — the two values every member must agree on
// before admission and regroup (gca broadcasts them over the fenced
// agreement window).
//
// The journal makes this idempotent: a retry after a failed attempt with
// the same survivor count resumes the pending transition — same target,
// same joiner count, already-issued tickets still valid. A retry after
// the survivor set changed aborts the pending transition first (its
// ticket geometry can no longer form): parked ticket holders are bounced
// retryably, and a fresh transition opens at the next unretired epoch.
func (m *Member) BeginGrow(survivors int) (target uint64, joiners int, err error) {
	if m.anchor == nil {
		return 0, 0, fmt.Errorf("elastic: only the anchor host begins a grow")
	}
	if m.pending != nil && m.pending.survivors == survivors {
		return m.pending.target, m.pending.joiners, nil
	}
	if m.pending != nil {
		m.anchor.AbortEpoch(m.pending.target)
		m.pending = nil
	}
	target = m.Epoch() + 1
	if st := m.anchor.State(); st.HasRun && st.DoneTo+1 > target {
		target = st.DoneTo + 1
	}
	joiners = m.anchor.PendingJoins()
	m.pending = &growTxn{target: target, survivors: survivors, joiners: joiners}
	return target, joiners, nil
}

// AbortGrow abandons the pending transition, if any: its target epoch is
// retired and every parked hello there — admitted joiners, early-dialing
// survivors — is bounced with a retryable status. Safe to call when no
// transition is pending.
func (m *Member) AbortGrow() {
	if m.anchor == nil || m.pending == nil {
		return
	}
	m.anchor.AbortEpoch(m.pending.target)
	m.pending = nil
}

// AdmitJoiners grants queued join requests tickets until n joiners in
// total hold one: ranks firstRank..firstRank+n-1 of a newSize-rank world
// at the pending transition's target epoch (Epoch()+1 when no transition
// is journaled). Anchor host only. Resuming a transition that already
// admitted k joiners admits only the remaining n-k — the earlier tickets
// stay valid. The admitted joiners immediately dial into the next
// formation, so the caller must follow with Regroup. It returns the
// total holding tickets (fewer than n when the queue drained or a joiner
// hung up while parked — the caller must then abort rather than form a
// world missing ranks) and any injected admission-step error.
func (m *Member) AdmitJoiners(n, firstRank, newSize int) (int, error) {
	if m.anchor == nil {
		return 0, fmt.Errorf("elastic: only the anchor host admits joiners")
	}
	next := m.Epoch() + 1
	admitted := 0
	if m.pending != nil {
		next = m.pending.target
		admitted = m.pending.admitted
	}
	for admitted < n {
		select {
		case req := <-m.anchor.Joins():
			t := tcp.Ticket{Epoch: next, Rank: firstRank + admitted, Size: newSize}
			if err := req.Admit(t, 5*time.Second); err != nil {
				if req.Bounced() {
					// Injected admission fault: the joiner was bounced to
					// re-request; surface the fault so the caller aborts.
					return admitted, err
				}
				// The joiner hung up while parked; its slot stays empty and
				// the caller learns the real admitted count.
				continue
			}
			admitted++
			if m.pending != nil {
				m.pending.admitted = admitted
			}
		default:
			return admitted, nil
		}
	}
	return admitted, nil
}

// Regroup moves this member into the next epoch's world: rank newRank of
// newSize ranks, at the pending transition's target epoch on the anchor
// host (Epoch()+1 otherwise). See RegroupTo.
func (m *Member) Regroup(newRank, newSize int) error {
	target := m.Epoch() + 1
	if m.anchor != nil && m.pending != nil {
		target = m.pending.target
	}
	return m.RegroupTo(newRank, newSize, target)
}

// RegroupTo moves this member into the world of epoch target: rank
// newRank of newSize ranks. Every continuing member and every admitted
// joiner must converge on the same geometry and target (the decision is
// collective input, agreed before calling — gca runs it through the ft
// agreement and broadcasts the anchor's journaled target). On success the
// old endpoint is fenced — its entire tag space purged, so no straggler
// of the old epoch can ever match a posted receive — and closed. On
// failure the old endpoint remains usable; the anchor host additionally
// aborts the target epoch (bouncing everything parked there retryably)
// and clears its journal, so the next attempt starts a fresh transition
// at a later epoch instead of resuming against stale tickets.
//
// The anchor host must keep newRank 0; a membership change that would
// drop or re-rank it promotes a survivor instead (see Promote).
func (m *Member) RegroupTo(newRank, newSize int, target uint64) error {
	m.mu.RLock()
	old := m.proc
	m.mu.RUnlock()
	var proc *tcp.Proc
	var err error
	if m.anchor != nil {
		if newRank != 0 {
			return fmt.Errorf("elastic: anchor host must stay rank 0, got %d", newRank)
		}
		proc, err = m.anchor.Rendezvous(newSize, target)
		if err != nil {
			m.anchor.AbortEpoch(target)
			m.pending = nil
		} else {
			m.pending = nil
		}
	} else {
		topts := m.opts
		topts.Epoch = target
		proc, err = tcp.Rendezvous(newRank, newSize, m.addr, topts)
	}
	if err != nil {
		return fmt.Errorf("elastic: regroup to epoch %d: %w", target, err)
	}
	m.mu.Lock()
	m.proc, m.epoch = proc, target
	m.mu.Unlock()
	// Fence the dead incarnation: no tag of the old epoch's world — user,
	// collective, nbc, ft, flight — may survive into the new one.
	old.PurgeTags(0, math.MaxInt32)
	old.Close()
	return nil
}

// Promote turns this member into the anchor host — the recovery path
// after the rank-0 process died. The survivor the collective elects (gca
// picks the lowest surviving rank) binds the anchor's address and seeds
// the new anchor's state from its own epoch, so retired-epoch stragglers
// still bounce correctly; the very next Regroup must then give this
// member rank 0. Binding fails while the true anchor is alive — exactly
// one process can own the address — so a mistaken promotion (the old
// anchor was partitioned, not dead) is refused here and the caller must
// eject itself and rejoin instead.
func (m *Member) Promote(joinCap int) error {
	if m.anchor != nil {
		return nil
	}
	st := tcp.AnchorState{DoneTo: m.Epoch(), HasRun: true}
	a, err := tcp.NewAnchorWithState(m.addr, joinCap, m.opts, st)
	if err != nil {
		return fmt.Errorf("elastic: promote: anchor address still owned: %w", err)
	}
	m.anchor = a
	return nil
}

// AnchorState snapshots the anchor's persistent rendezvous position for
// recovery (see HostWithState). The second return is false on non-anchor
// members.
func (m *Member) AnchorState() (tcp.AnchorState, bool) {
	if m.anchor == nil {
		return tcp.AnchorState{}, false
	}
	return m.anchor.State(), true
}

// Close shuts down the current endpoint and, on the anchor host, the
// persistent listener (bouncing any queued joiners).
func (m *Member) Close() error {
	m.mu.RLock()
	proc := m.proc
	m.mu.RUnlock()
	err := proc.Close()
	if m.anchor != nil {
		if aerr := m.anchor.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// cur returns the current epoch's endpoint.
func (m *Member) cur() *tcp.Proc {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.proc
}

// Unwrap reveals the current endpoint (the errors.Unwrap convention), so
// capability probes — flight.RecorderOf in particular — walk through.
func (m *Member) Unwrap() comm.Comm { return m.cur() }

// Rank implements comm.Comm.
func (m *Member) Rank() int { return m.cur().Rank() }

// Size implements comm.Comm.
func (m *Member) Size() int { return m.cur().Size() }

// ChargeCompute implements comm.Comm.
func (m *Member) ChargeCompute(n int) { m.cur().ChargeCompute(n) }

// Send implements comm.Comm.
func (m *Member) Send(to int, tag comm.Tag, buf []byte) error {
	return m.cur().Send(to, tag, buf)
}

// Recv implements comm.Comm.
func (m *Member) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	return m.cur().Recv(from, tag, buf)
}

// Isend implements comm.Comm.
func (m *Member) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return m.cur().Isend(to, tag, buf)
}

// Irecv implements comm.Comm.
func (m *Member) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return m.cur().Irecv(from, tag, buf)
}

// SendRecv implements comm.SendRecver.
func (m *Member) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	return m.cur().SendRecv(to, sendBuf, from, recvBuf, tag)
}

// SetOpTimeout implements comm.Deadliner on the current endpoint. The
// setting does not survive Regroup (a fresh epoch starts unbounded, like
// a fresh world); fault-tolerant sessions re-apply their timeout when
// they rebuild, exactly as they do after a Shrink.
func (m *Member) SetOpTimeout(d time.Duration) { m.cur().SetOpTimeout(d) }

// Failed implements comm.FailureDetector.
func (m *Member) Failed() []int { return m.cur().Failed() }

// PurgeTags implements comm.Purger.
func (m *Member) PurgeTags(lo, hi comm.Tag) { m.cur().PurgeTags(lo, hi) }

// Locality implements comm.Locator.
func (m *Member) Locality(rank int) (comm.Locality, bool) { return m.cur().Locality(rank) }
