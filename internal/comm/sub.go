package comm

import (
	"fmt"
	"sort"
)

// SubComm presents a subset of a communicator's ranks as a dense
// communicator of its own — the analogue of MPI_Comm_split for the
// hierarchical algorithms (intranode phase + leader phase). Ranks outside
// the subset must not use the SubComm; messages travel through the parent
// communicator, so sub-communicator traffic between the same pair shares
// the parent's per-(source, tag) FIFO ordering.
//
// Capabilities come from the embedded Forward; only those that speak in
// ranks (Failed, Locality, SendRecv) are translated here. Tag windows are
// shared with the parent, so PurgeTags needs no translation.
type SubComm struct {
	Forward
	ranks []int // dense index -> parent rank, strictly ascending
	myIdx int
}

// NewSub creates the sub-communicator containing the given parent ranks
// (which must be distinct and include the caller). Every member must call
// NewSub with the same rank list.
func NewSub(c Comm, ranks []int) (*SubComm, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("comm: empty sub-communicator")
	}
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	myIdx := -1
	for i, r := range sorted {
		if r < 0 || r >= c.Size() {
			return nil, fmt.Errorf("%w: sub rank %d", ErrRankOutOfRange, r)
		}
		if i > 0 && sorted[i-1] == r {
			return nil, fmt.Errorf("comm: duplicate sub rank %d", r)
		}
		if r == c.Rank() {
			myIdx = i
		}
	}
	if myIdx < 0 {
		return nil, fmt.Errorf("comm: caller (rank %d) not in sub-communicator", c.Rank())
	}
	return &SubComm{Forward: NewForward(c), ranks: sorted, myIdx: myIdx}, nil
}

// Parent returns the parent rank of a sub-communicator index.
func (s *SubComm) Parent(idx int) int { return s.ranks[idx] }

// Rank implements Comm.
func (s *SubComm) Rank() int { return s.myIdx }

// Size implements Comm.
func (s *SubComm) Size() int { return len(s.ranks) }

func (s *SubComm) translate(idx int) (int, error) {
	if idx < 0 || idx >= len(s.ranks) {
		return 0, fmt.Errorf("%w: sub index %d, size %d", ErrRankOutOfRange, idx, len(s.ranks))
	}
	return s.ranks[idx], nil
}

// Send implements Comm.
func (s *SubComm) Send(to int, tag Tag, buf []byte) error {
	r, err := s.translate(to)
	if err != nil {
		return err
	}
	return s.inner.Send(r, tag, buf)
}

// Recv implements Comm.
func (s *SubComm) Recv(from int, tag Tag, buf []byte) (int, error) {
	r, err := s.translate(from)
	if err != nil {
		return 0, err
	}
	return s.inner.Recv(r, tag, buf)
}

// Isend implements Comm.
func (s *SubComm) Isend(to int, tag Tag, buf []byte) (Request, error) {
	r, err := s.translate(to)
	if err != nil {
		return nil, err
	}
	return s.inner.Isend(r, tag, buf)
}

// Irecv implements Comm.
func (s *SubComm) Irecv(from int, tag Tag, buf []byte) (Request, error) {
	r, err := s.translate(from)
	if err != nil {
		return nil, err
	}
	return s.inner.Irecv(r, tag, buf)
}

// SendRecv implements SendRecver: both ranks translated, then the
// parent's exchange (its native one when it has one).
func (s *SubComm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag Tag) (int, error) {
	t, err := s.translate(to)
	if err != nil {
		return 0, err
	}
	f, err := s.translate(from)
	if err != nil {
		return 0, err
	}
	return SendRecv(s.inner, t, sendBuf, f, recvBuf, tag)
}

// Failed translates the parent's failed ranks into sub-communicator
// indices; parent failures outside the subset are dropped (they are no
// longer members), so fault-tolerant sessions keep an exact view after a
// Shrink onto a SubComm.
func (s *SubComm) Failed() []int {
	var out []int
	for _, parent := range s.Forward.Failed() {
		if idx := sort.SearchInts(s.ranks, parent); idx < len(s.ranks) && s.ranks[idx] == parent {
			out = append(out, idx)
		}
	}
	return out
}

// Locality translates the sub index into the parent rank. Node and Ports
// are physical facts and pass through unchanged; LocalRank and PPN remain
// parent-relative (internal/topo recomputes communicator-relative values
// when it builds a map).
func (s *SubComm) Locality(idx int) (Locality, bool) {
	if idx < 0 || idx >= len(s.ranks) {
		return Locality{}, false
	}
	return s.Forward.Locality(s.ranks[idx])
}
