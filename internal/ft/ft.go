// Package ft is the fault-tolerance layer for blocking collectives — the
// ULFM-inspired state machine behind gca.WithFaultTolerance.
//
// The problem: a collective is a distributed computation, so one rank's
// failure surfaces asymmetrically — some ranks get an error from a dead
// link, others complete their part and return success, and without
// coordination the world splits between ranks that think the collective
// happened and ranks that know it did not. ULFM (MPIX_Comm_agree +
// MPIX_Comm_shrink) resolves this with user-level error agreement; this
// package is that design point for exacoll:
//
//  1. After every collective, all ranks run a two-round flood agreement
//     exchanging (local-failure bit, dead-rank bitmask) with every peer
//     they believe alive. The verdict — OR of all failure bits, OR of all
//     masks — makes the group fail or succeed together.
//  2. On an agreed failure the collective epoch advances: subsequent
//     collectives use a fresh tag window (EpochComm) and the retired
//     window is purged (comm.Purger), so stragglers from the failed
//     collective can never corrupt a later one.
//  3. Idempotent collectives may then be retried transparently
//     (Config.Retries) when the failure was transient — no rank died.
//  4. When ranks did die, Survivors returns the agreed survivor set for a
//     communicator shrink; a rank that the group declared dead is fenced
//     (ErrFenced) and must leave.
//
// Honest limits: the verdict is computed from flooded information only —
// a death observed during the final round is excluded from the current
// verdict and flooded by the next agreement instead (see agree) — which
// makes the 2-round flood uniform under at most ONE failure per agreement.
// Two or more ranks failing inside the same agreement window, or an
// asymmetric false suspicion (extreme network delay crossing the op
// deadline on one link only), can still split the verdict: that is the
// price of not running a full f+1-round consensus per collective. The
// split is bounded by deadlines (nobody hangs), surfaces as further
// aborted collectives, and is resolved by Shrink.
package ft

import (
	"errors"
	"fmt"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/flight"
	"exacoll/internal/metrics"
)

// ErrAborted is wrapped by every collective error after the world agreed
// the collective failed (use errors.Is).
var ErrAborted = errors.New("ft: collective aborted by group agreement")

// ErrFenced means the group declared this rank failed (a false suspicion
// under extreme delay, or a partition). The rank must stop using the
// communicator; it is excluded from Survivors on every other rank.
var ErrFenced = errors.New("ft: this rank was declared failed by the group")

// agreementRounds is the number of flood rounds per agreement. Two rounds
// propagate any failure observed before or during round one to every
// survivor when detection is prompt and symmetric.
const agreementRounds = 2

// Config parameterizes a State. Every rank of a world must use identical
// Retries/Backoff/Epoch/SeqBase so retry decisions stay in lockstep.
type Config struct {
	// Timeout is the per-operation deadline applied to the transport
	// (comm.Deadliner) — the bound that turns a dead peer into an error
	// instead of a hang. Zero leaves the transport's setting untouched.
	Timeout time.Duration
	// Retries is how many times an idempotent collective is transparently
	// re-run after a transient (no-deaths) agreed failure.
	Retries int
	// Backoff is slept between retries.
	Backoff time.Duration
	// Epoch is the starting collective epoch (non-zero when inheriting a
	// parent session's tag-space position across a Shrink).
	Epoch int64
	// SeqBase is the starting agreement sequence (inherited across a
	// Shrink so agreement tags are never reused against parent stragglers).
	SeqBase int64
	// Metrics, when non-nil, receives the FT counters.
	Metrics *metrics.Registry
}

// State is one rank's fault-tolerance state machine. Not safe for
// concurrent use — drive it from the rank's collective-calling goroutine
// (the same discipline as the communicator itself).
type State struct {
	base comm.Comm // capability-bearing transport the epoch comm wraps
	ec   *EpochComm
	out  comm.Comm // outermost comm for agreement traffic (metrics-wrapped)
	cfg  Config

	seq    int64  // next agreement sequence
	dead   []bool // cumulative dead set (agreed + locally observed), by rank
	fenced bool   // the group declared this rank dead
	// deadVerdict is the last agreement's flooded death verdict — true when
	// the agreed (not merely locally observed) dead set was non-empty. The
	// lockstep retry decision keys off this, never off local observations.
	deadVerdict bool
}

// New builds the FT state over base, applying cfg.Timeout to the
// transport when it supports deadlines. Comm returns the epoch-translating
// communicator to run collectives through (wrap it with metrics and hand
// the result to SetOuter so agreement traffic is counted too).
func New(base comm.Comm, cfg Config) *State {
	s := &State{
		base: base,
		ec:   NewEpochComm(base, cfg.Epoch),
		cfg:  cfg,
		seq:  cfg.SeqBase,
		dead: make([]bool, base.Size()),
	}
	s.out = s.ec
	if cfg.Timeout > 0 {
		s.ec.SetOpTimeout(cfg.Timeout)
	}
	return s
}

// Comm returns the epoch-translating communicator.
func (s *State) Comm() *EpochComm { return s.ec }

// SetOuter routes agreement traffic through c (the fully wrapped
// communicator) instead of the bare epoch comm.
func (s *State) SetOuter(c comm.Comm) { s.out = c }

// Epoch returns the current collective epoch.
func (s *State) Epoch() int64 { return s.ec.Epoch() }

// Seq returns the next agreement sequence (pass as SeqBase to a shrunken
// session's Config).
func (s *State) Seq() int64 { return s.seq }

// Fenced reports whether the group has declared this rank dead.
func (s *State) Fenced() bool { return s.fenced }

func setBit(mask []byte, i int)      { mask[i/8] |= 1 << (i % 8) }
func getBit(mask []byte, i int) bool { return mask[i/8]&(1<<(i%8)) != 0 }

// agree runs one flood agreement. It returns the group verdict: aborted
// is true when any participant reported failure or any rank is agreed
// dead. The cumulative dead set is updated as a side effect.
//
// Uniformity rule: the verdict is computed from flooded information only —
// the local fail bit (sent in round 0), fail bits and dead masks received
// in any round, and deaths observed before the final round (re-flooded in
// the next round's payload). A death observed during the FINAL round cannot
// be propagated to peers anymore, so it is excluded from this verdict and
// only remembered in s.dead: the next agreement floods it in its round 0.
// Without this rule a rank dying mid-final-round after sending to a subset
// of peers splits the verdict — the subset sees a clean exchange while the
// rest see a death (the classic last-round asymmetry of early-stopping
// crash consensus). With at most one failure per agreement the rule makes
// every live rank compute the identical verdict.
func (s *State) agree(localFail bool) (aborted bool) {
	p, me := s.base.Size(), s.base.Rank()
	rec := flight.RecorderOf(s.out)
	if rec != nil {
		rec.Record(flight.EvAgreeBegin, -1, 0, 0, uint64(s.seq))
	}
	defer func() {
		if rec != nil {
			rec.Record(flight.EvAgreeEnd, -1, 0, 0, uint64(s.seq))
		}
		s.seq++
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.FTAgreement(me, aborted)
		}
	}()
	if p == 1 {
		s.deadVerdict = false
		return localFail
	}
	// A peer may enter the agreement up to one op-timeout later than we do
	// (it was still blocking inside the collective when ours failed fast).
	// Raise the deadline for the agreement exchange so that skew is not
	// mistaken for a death, and restore it for the next collective.
	if s.cfg.Timeout > 0 {
		s.ec.SetOpTimeout(2*s.cfg.Timeout + 500*time.Millisecond)
		defer s.ec.SetOpTimeout(s.cfg.Timeout)
	}
	nb := (p + 7) / 8
	mask := make([]byte, nb) // flooded dead set: enters the verdict
	late := make([]byte, nb) // final-round local observations: next verdict
	for r, d := range s.dead {
		if d {
			setBit(mask, r)
		}
	}
	for _, r := range s.ec.Failed() {
		setBit(mask, r)
	}
	fail := localFail

	for round := 0; round < agreementRounds; round++ {
		last := round == agreementRounds-1
		suspect := func(j int) {
			if last {
				setBit(late, j)
			} else {
				setBit(mask, j)
			}
		}
		tag := comm.TagFTBase + comm.Tag((s.seq*agreementRounds+int64(round))%comm.FTTagSeqs)
		var peers []int
		for j := 0; j < p; j++ {
			if j != me && !getBit(mask, j) {
				peers = append(peers, j)
			}
		}
		payload := make([]byte, 1+nb)
		if fail {
			payload[0] = 1
		}
		copy(payload[1:], mask)

		// Post every receive first so they progress concurrently, then
		// send; a dead peer surfaces on its own exchange only.
		reqs := make([]comm.Request, len(peers))
		bufs := make([][]byte, len(peers))
		for i, j := range peers {
			bufs[i] = make([]byte, 1+nb)
			req, err := s.out.Irecv(j, tag, bufs[i])
			if err != nil {
				suspect(j)
				continue
			}
			reqs[i] = req
		}
		for i, j := range peers {
			if reqs[i] == nil {
				continue
			}
			if err := s.out.Send(j, tag, payload); err != nil {
				suspect(j)
			}
		}
		for i, j := range peers {
			if reqs[i] == nil {
				continue
			}
			if err := reqs[i].Wait(); err != nil {
				suspect(j)
				if errors.Is(err, comm.ErrTimeout) && s.cfg.Metrics != nil {
					s.cfg.Metrics.FTTimeout(me)
				}
				continue
			}
			if bufs[i][0] != 0 {
				fail = true
			}
			for b := 0; b < nb; b++ {
				mask[b] |= bufs[i][1+b]
			}
		}
	}

	newDead, anyDead := 0, false
	for j := 0; j < p; j++ {
		if getBit(mask, j) {
			anyDead = true
			if !s.dead[j] {
				s.dead[j] = true
				newDead++
			}
		} else if getBit(late, j) && !s.dead[j] {
			// Observed too late to flood: carried into the next agreement.
			s.dead[j] = true
			newDead++
		}
	}
	if getBit(mask, me) {
		s.fenced = true
	}
	s.deadVerdict = anyDead
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.FTFailuresDetected(me, newDead)
	}
	return fail || anyDead
}

// advanceEpoch retires the current collective tag window — purging any
// stragglers buffered or posted in it — and moves to the next.
func (s *State) advanceEpoch() {
	e := s.ec.Epoch()
	lo, hi := EpochWindow(e)
	s.ec.PurgeTags(lo, hi)
	s.ec.SetEpoch(e + 1)
}

// RunCollective executes one collective (run must issue it through Comm or
// a wrapper of it) under the FT protocol: run, agree on the outcome,
// quiesce and retry or abort. On success every rank returns nil; on an
// agreed failure every rank returns an error wrapping ErrAborted (also
// wrapping the local cause when there was one). Idempotent collectives
// are retried in lockstep up to Config.Retries times while no rank died.
func (s *State) RunCollective(idempotent bool, run func() error) error {
	if s.fenced {
		return fmt.Errorf("%w", ErrFenced)
	}
	for attempt := 0; ; attempt++ {
		err := run()
		if err != nil && errors.Is(err, comm.ErrTimeout) && s.cfg.Metrics != nil {
			s.cfg.Metrics.FTTimeout(s.base.Rank())
		}
		aborted := s.agree(err != nil)
		if !aborted {
			// A local error with a clean group verdict cannot happen
			// (localFail forces aborted); err is nil here.
			return nil
		}
		s.advanceEpoch()
		if s.fenced {
			return fmt.Errorf("%w (after agreement %d)", ErrFenced, s.seq-1)
		}
		if idempotent && attempt < s.cfg.Retries && !s.deadVerdict {
			if s.cfg.Metrics != nil {
				s.cfg.Metrics.FTRetry(s.base.Rank())
			}
			if s.cfg.Backoff > 0 {
				time.Sleep(s.cfg.Backoff)
			}
			continue
		}
		if err == nil {
			return fmt.Errorf("%w (epoch %d): a peer reported failure", ErrAborted, s.ec.Epoch()-1)
		}
		return fmt.Errorf("%w (epoch %d): %w", ErrAborted, s.ec.Epoch()-1, err)
	}
}

// Survivors runs one agreement dedicated to membership and returns the
// agreed survivor list (base-communicator ranks, ascending). Every member
// must call it collectively. A fenced rank gets ErrFenced — it is not in
// any other rank's survivor list and must not join the shrunken world.
func (s *State) Survivors() ([]int, error) {
	s.agree(false)
	if s.fenced {
		return nil, fmt.Errorf("%w", ErrFenced)
	}
	var out []int
	for j, d := range s.dead {
		if !d {
			out = append(out, j)
		}
	}
	return out, nil
}

// Expand is the grow-side membership step: one agreement on the survivor
// set, then an epoch advance that retires (and purges) the current
// collective tag window. It returns the survivors and the fresh epoch,
// whose virgin window (EpochWindow) the caller may use for
// membership-change control traffic — e.g. broadcasting the joiner count —
// without colliding with stragglers of a failed collective. Every
// surviving member must call it collectively.
func (s *State) Expand() ([]int, int64, error) {
	survivors, err := s.Survivors()
	if err != nil {
		return nil, 0, err
	}
	s.advanceEpoch()
	return survivors, s.ec.Epoch(), nil
}
