package gca

// Elastic membership: worlds over TCP that grow, shrink, and re-admit
// ranks across their lifetime (see internal/elastic). The elastic
// transport keeps one persistent rendezvous anchor on rank 0; each
// membership is an epoch, and every change forms a brand-new mesh whose
// predecessor is fenced — its entire tag space purged — so stragglers
// from an old membership can never corrupt a new one.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/elastic"
	"exacoll/internal/ft"
	"exacoll/internal/transport/tcp"
)

// ErrEjected reports that this rank lost its place in the elastic world:
// the survivors elected it to take over the dead anchor's duty, but the
// anchor address is still owned — the old anchor is alive on the other
// side of a partition, and the world has moved on (or will) without this
// rank. The only way back is a fresh JoinElastic.
var ErrEjected = errors.New("gca: ejected from the world; rejoin via JoinElastic")

// promoteJoinCap is the admission-queue depth a promoted anchor accepts —
// the original joinCap was the dead anchor's local knowledge, so the
// promoted one starts with a sensible default.
const promoteJoinCap = 16

// Retryable reports whether an error from Grow, Shrink, or JoinElastic is
// transient: the membership change may be retried and the retry can
// converge (rendezvous bounces, aborted transitions, races with
// concurrent membership changes, timed-out formations — a formation that
// timed out waiting for a member left the old epoch intact, and that
// member is failing its own attempt, so both sides retry from agreement).
// ErrEjected is never retryable — the rank must rejoin from outside.
func Retryable(err error) bool {
	if errors.Is(err, ErrEjected) {
		return false
	}
	return tcp.Retryable(err) || errors.Is(err, ft.ErrAborted) || errors.Is(err, comm.ErrTimeout)
}

// ElasticComm is a communicator whose world can change membership: pass
// it to NewSession like any other Comm, and drive membership changes with
// Session.Grow / Session.Shrink. Close it when the process leaves the
// world for good.
type ElasticComm = elastic.Member

// ConnectElastic joins an elastic multi-process world over TCP — the
// growable counterpart of ConnectTCP. Rank 0 hosts the persistent
// rendezvous anchor at addr (accepting up to joinCap queued join requests
// at any time) and must remain rank 0 of every later membership; other
// ranks dial it. Provide the same addr everywhere.
func ConnectElastic(rank, size int, addr string, joinCap int, timeout time.Duration) (*ElasticComm, error) {
	if rank == 0 {
		return elastic.Host(addr, size, joinCap, tcp.Options{Timeout: timeout})
	}
	return elastic.Dial(addr, rank, size, tcp.Options{Timeout: timeout})
}

// JoinElastic enters an existing elastic world from outside: it parks a
// join request at the anchor and blocks (up to timeout) until the
// incumbents run Session.Grow, then lands as a full member of the grown
// world. Build a Session over the returned communicator with the same
// options the incumbents use; a process whose earlier incarnation died
// rejoins the same way, under a fresh rank and a fresh tag space.
func JoinElastic(addr string, timeout time.Duration) (*ElasticComm, error) {
	return elastic.Join(addr, tcp.Options{Timeout: timeout})
}

// elasticMemberOf walks the session's wrapper chain (comm.Walk) down to
// the elastic member, composing the rank translation of every SubComm
// crossed on the way — after one or more Shrinks the base communicator is
// a stack of SubComms over the member. It returns the member and a
// function mapping base-communicator ranks to member-level ranks (nil,
// nil when no elastic transport is underneath).
func elasticMemberOf(c comm.Comm) (*elastic.Member, func(int) int) {
	var member *elastic.Member
	xlate := func(r int) int { return r }
	comm.Walk(c, func(cur comm.Comm) bool {
		switch v := cur.(type) {
		case *elastic.Member:
			member = v
			return false
		case *comm.SubComm:
			prev := xlate
			xlate = func(r int) int { return v.Parent(prev(r)) }
		}
		return true
	})
	if member == nil {
		return nil, nil
	}
	return member, xlate
}

// ElasticCommOf returns the elastic communicator underneath a session's
// transport, walking the wrapper chain like Grow does — nil when the
// session is not on an elastic transport. Useful for lifecycle control
// (PendingJoins, Epoch, Close) when only the session is at hand.
func ElasticCommOf(s *Session) *ElasticComm {
	m, _ := elasticMemberOf(s.base)
	return m
}

// growCountTag returns the tag used for the grow-plan broadcast during
// Grow: the first tag of the given (virgin) collective epoch window.
func growCountTag(epoch int64) comm.Tag {
	lo, _ := ft.EpochWindow(epoch)
	return lo
}

// growPlan is the leader's journaled transition decision, broadcast to
// every survivor so admission and regroup agree on geometry and epoch:
// target(8) joiners(4).
const growPlanSize = 12

// growAborted in the plan's joiner field tells survivors the leader
// abandoned the transition before regroup — they fail fast with a
// retryable error instead of waiting out their op timeout on a formation
// that will never run.
const growAborted = ^uint32(0)

// Grow admits every join request queued at the anchor and returns a new
// session over the grown world. Every surviving rank must call Grow
// collectively (like Shrink); joiners are concurrently completing their
// JoinElastic calls and build their own sessions afterwards. The protocol
// — journaled and resumable, every step leaving the old epoch intact:
//
//  1. Agree on the survivor set (the same ft agreement Shrink runs), so a
//     membership change and a rank death cannot split the world. If the
//     anchor host (member rank 0) is not among the survivors, the lowest
//     surviving member rank promotes itself: it binds the anchor address
//     with state seeded from its own epoch and takes over rendezvous duty
//     (failing that — the address is still owned, so the old anchor is
//     partitioned, not dead — it returns ErrEjected and must rejoin).
//  2. The leader opens (or resumes) the journaled transition: target
//     epoch and joiner count are fixed once per transition, tickets are
//     issued for exactly that geometry, and the plan is broadcast to the
//     survivors over a virgin tag window. A retry after a failure here
//     resumes the same transition — already-ticketed joiners stay valid.
//  3. Everyone re-rendezvouses into the target epoch's mesh — survivors
//     keep their relative order and occupy ranks 0..s-1 (the leader is
//     rank 0), joiners take ranks s..s+n-1 — and the old mesh is fenced:
//     every connection closed, every tag purged. A failed formation
//     aborts the target epoch (bouncing everything parked there with a
//     retryable status) so the next attempt starts cleanly later.
//
// The new session starts from a virgin tag space (the transport is a new
// mesh), carrying over the session's options. With no queued joiners Grow
// still regroups, which compacts out any dead ranks — a Shrink that also
// re-keys the transport epoch. On a non-nil error the old session remains
// usable and, when Retryable reports the error transient, calling Grow
// again resumes or restarts the transition. Requires WithFaultTolerance
// and an elastic transport (ConnectElastic / JoinElastic).
func (s *Session) Grow() (*Session, error) {
	if s.ft == nil {
		return nil, fmt.Errorf("gca: Grow requires WithFaultTolerance")
	}
	member, toMember := elasticMemberOf(s.base)
	if member == nil {
		return nil, fmt.Errorf("gca: Grow requires an elastic transport (ConnectElastic/JoinElastic)")
	}
	survivors, epoch, err := s.ft.Expand()
	if err != nil {
		return nil, err
	}
	if toMember(survivors[0]) != 0 && !member.IsAnchor() {
		// The anchor host is dead. Survivor order is preserved by every
		// sub-communicator, so survivors[0] is the lowest surviving member
		// rank everywhere — the collective elects it without a message.
		if survivors[0] == s.base.Rank() {
			if perr := member.Promote(promoteJoinCap); perr != nil {
				return nil, fmt.Errorf("%w: %w", ErrEjected, perr)
			}
		}
	}
	sub, err := comm.NewSub(s.base, survivors)
	if err != nil {
		return nil, err
	}

	// The transition plan (target epoch, joiner count) is anchor-local
	// knowledge; a linear broadcast over the survivor sub-communicator
	// makes it collective. The virgin epoch window cannot hold stragglers,
	// and the whole window dies with the old mesh moments later.
	tag := growCountTag(epoch)
	var plan [growPlanSize]byte
	if sub.Rank() == 0 {
		target, joiners, err := member.BeginGrow(sub.Size())
		if err != nil {
			return nil, err
		}
		admitted, aerr := member.AdmitJoiners(joiners, sub.Size(), sub.Size()+joiners)
		if aerr != nil || admitted != joiners {
			// An admission step failed or a joiner hung up after its ticket
			// was cut: the issued tickets name a geometry the mesh can no
			// longer form. Abort the transition — ticket holders bounce
			// retryably — tell the survivors (best effort: a survivor the
			// plan cannot reach is already failing on its own), and let the
			// caller retry from the top.
			member.AbortGrow()
			binary.LittleEndian.PutUint64(plan[0:], 0)
			binary.LittleEndian.PutUint32(plan[8:], growAborted)
			for i := 1; i < sub.Size(); i++ {
				sub.Send(i, tag, plan[:])
			}
			if aerr != nil {
				return nil, fmt.Errorf("gca: grow admission: %w", aerr)
			}
			return nil, fmt.Errorf("gca: admitted %d of %d joiners; grow aborted: %w",
				admitted, joiners, tcp.ErrBounced)
		}
		binary.LittleEndian.PutUint64(plan[0:], target)
		binary.LittleEndian.PutUint32(plan[8:], uint32(joiners))
		for i := 1; i < sub.Size(); i++ {
			if err := sub.Send(i, tag, plan[:]); err != nil {
				return nil, fmt.Errorf("gca: grow plan broadcast: %w", err)
			}
		}
	} else {
		if _, err := sub.Recv(0, tag, plan[:]); err != nil {
			return nil, fmt.Errorf("gca: grow plan broadcast: %w", err)
		}
	}
	target := binary.LittleEndian.Uint64(plan[0:])
	nj := binary.LittleEndian.Uint32(plan[8:])
	if nj == growAborted {
		return nil, fmt.Errorf("gca: grow aborted by leader: %w", tcp.ErrBounced)
	}
	joiners := int(nj)

	if err := member.RegroupTo(sub.Rank(), sub.Size()+joiners, target); err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.epoch, cfg.seqBase = 0, 0 // fresh mesh, virgin tag space
	return newSession(member, cfg), nil
}
