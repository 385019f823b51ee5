package core

import (
	"errors"
	"fmt"
	"unsafe"

	scratch "exacoll/internal/buf"
	"exacoll/internal/comm"
	"exacoll/internal/datatype"
)

// ErrPow2Only reports an algorithm restricted to power-of-two communicator
// sizes (matching MPICH, whose recursive-doubling allgather is only
// selected for power-of-two sizes; the generalized recursive-multiplying
// algorithms in recmul.go handle arbitrary sizes via folding).
var ErrPow2Only = errors.New("core: algorithm requires a power-of-two number of ranks")

func isPow2(p int) bool { return p > 0 && p&(p-1) == 0 }

// recdblAllgatherLayout runs classic recursive-doubling allgather over
// blocks keyed by absolute rank under the given layout. Each rank must
// already hold its own block in buf; blocks form contiguous regions under
// both supported layouts, so every exchange is a single contiguous
// sendrecv. Requires power-of-two p.
func recdblAllgatherLayout(c comm.Comm, buf []byte, layout BlockLayout, tag comm.Tag) error {
	p := c.Size()
	if !isPow2(p) {
		return fmt.Errorf("%w: p=%d", ErrPow2Only, p)
	}
	r := c.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		partner := r ^ mask
		mlo, mhi := blockRange(layout, r&^(mask-1), mask)
		plo, phi := blockRange(layout, partner&^(mask-1), mask)
		if _, err := comm.SendRecv(c, partner, buf[mlo:mhi], partner, buf[plo:phi], tag); err != nil {
			return err
		}
	}
	return nil
}

// AllgatherRecDbl is the classic recursive-doubling allgather (Fig. 3 of
// the paper, eq. (4)): log2(p) pairwise exchange rounds with the exchanged
// data doubling every round. Power-of-two p only, as in MPICH.
func AllgatherRecDbl(c comm.Comm, sendbuf, recvbuf []byte) error {
	if err := checkAllgatherBufs(c, sendbuf, recvbuf); err != nil {
		return err
	}
	n := len(sendbuf)
	copy(recvbuf[c.Rank()*n:], sendbuf)
	if c.Size() == 1 {
		return nil
	}
	return recdblAllgatherLayout(c, recvbuf, UniformLayout(n), tagRecDbl)
}

// BcastRecDbl broadcasts via binomial scatter followed by a
// recursive-doubling allgather over fair blocks (the "scatter-allgather"
// bcast modeled by eq. (4)). Power-of-two p only.
func BcastRecDbl(c comm.Comm, buf []byte, root int) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	p := c.Size()
	if p == 1 {
		return nil
	}
	if !isPow2(p) {
		return fmt.Errorf("%w: p=%d", ErrPow2Only, p)
	}
	if err := scatterFairForBcast(c, buf, root, 2); err != nil {
		return err
	}
	return recdblAllgatherLayout(c, buf, FairLayout(len(buf), p), tagRecDbl)
}

// foldPre performs the pre-phase of MPICH's non-power-of-two handling for
// reductions: with rem = p - p2 excess ranks, each even rank r < 2·rem
// sends its accumulator to r+1, which reduces it. Returns the caller's rank
// in the power-of-two subgroup, or -1 if the caller folded out and must
// wait for foldPost.
func foldPre(c comm.Comm, acc []byte, op datatype.Op, dt datatype.Type, p2 int) (newrank int, err error) {
	p := c.Size()
	r := c.Rank()
	rem := p - p2
	switch {
	case r < 2*rem && r%2 == 0:
		if err := c.Send(r+1, tagFold, acc); err != nil {
			return 0, err
		}
		return -1, nil
	case r < 2*rem:
		tmp := scratch.Get(len(acc))
		defer scratch.Put(tmp)
		if _, err := c.Recv(r-1, tagFold, tmp); err != nil {
			return 0, err
		}
		if err := reduceInto(c, op, dt, acc, tmp); err != nil {
			return 0, err
		}
		return r / 2, nil
	default:
		return r - rem, nil
	}
}

// foldReal maps a power-of-two-subgroup rank back to its absolute rank.
func foldReal(newrank, p, p2 int) int {
	rem := p - p2
	if newrank < rem {
		return newrank*2 + 1
	}
	return newrank + rem
}

// foldPost completes non-power-of-two handling: each odd rank r < 2·rem
// sends the final result back to r-1.
func foldPost(c comm.Comm, result []byte, p2 int) error {
	p := c.Size()
	r := c.Rank()
	rem := p - p2
	switch {
	case r < 2*rem && r%2 == 0:
		_, err := c.Recv(r+1, tagFold, result)
		return err
	case r < 2*rem:
		return c.Send(r-1, tagFold, result)
	default:
		return nil
	}
}

// AllreduceRecDbl is the classic recursive-doubling allreduce (eq. (4)):
// log2(p) rounds, each exchanging and reducing the full vector with a
// partner 2^i away. Non-power-of-two sizes fold excess ranks first, as in
// MPICH.
func AllreduceRecDbl(c comm.Comm, sendbuf, recvbuf []byte, op datatype.Op, dt datatype.Type) error {
	if err := checkReduceBufs(sendbuf, recvbuf, dt); err != nil {
		return err
	}
	p := c.Size()
	copy(recvbuf, sendbuf)
	if p == 1 {
		return nil
	}
	p2 := 1 << ilog(2, p)
	newrank, err := foldPre(c, recvbuf, op, dt, p2)
	if err != nil {
		return err
	}
	if newrank >= 0 {
		tmp := scratch.Get(len(sendbuf))
		defer scratch.Put(tmp)
		for mask := 1; mask < p2; mask <<= 1 {
			partner := foldReal(newrank^mask, p, p2)
			if _, err := comm.SendRecv(c, partner, recvbuf, partner, tmp, tagRecDbl); err != nil {
				return err
			}
			if err := reduceInto(c, op, dt, recvbuf, tmp); err != nil {
				return err
			}
		}
	}
	return foldPost(c, recvbuf, p2)
}

// blockRange returns the byte range [lo, hi) that the count ≥ 1 blocks
// starting at base occupy under layout (blocks lie in ascending id order).
func blockRange(layout BlockLayout, base, count int) (lo, hi int) {
	lo, _ = layout(base)
	off, sz := layout(base + count - 1)
	return lo, off + sz
}

// overlaps reports whether a and b share any byte.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// recHalve is the recursive-halving reduce-scatter shared by
// AllreduceRabenseifner and ReduceScatterRecHalving, over the power-of-two
// group of p2 ranks that foldPre leaves of a p-rank communicator (me is
// the caller's rank in the group): each round keeps the half of the active
// block range holding the caller's own block and trades the other half
// with the partner 2^i away.
//
// Partials accumulate in acc, which stands for vector bytes [accLo,
// accLo+len(acc)). With mine == nil, acc already holds the caller's
// contribution. Otherwise the contribution is still the full vector mine,
// acc's contents are undefined and it need only cover the half kept in
// round one, which then runs out of place: send from mine, receive
// straight into acc, reduce mine's kept half into it. That saves copying
// the vector into acc first, and flips the round's operand order to
// incoming ⊕ mine — bit-identical for every built-in (commutative) op.
//
// Scratch is sized by the bytes received into it — the kept half of the
// first in-place round, n/2 or n/4 — never by n.
func recHalve(c comm.Comm, mine, acc []byte, accLo, me, p, p2 int, layout BlockLayout, op datatype.Op, dt datatype.Type) error {
	var tmp []byte
	var err error
	lo, half := 0, p2/2
	for mask := p2 / 2; mask >= 1 && err == nil; mask >>= 1 {
		partner := foldReal(me^mask, p, p2)
		keepLo, sendLo := lo, lo+half
		if me&mask != 0 {
			keepLo, sendLo = sendLo, keepLo
		}
		sLo, sHi := blockRange(layout, sendLo, half)
		kLo, kHi := blockRange(layout, keepLo, half)
		keep := acc[kLo-accLo : kHi-accLo]
		if mine != nil {
			if _, err = comm.SendRecv(c, partner, mine[sLo:sHi], partner, keep, tagRabens); err == nil {
				err = reduceInto(c, op, dt, keep, mine[kLo:kHi])
			}
			mine = nil
		} else {
			if tmp == nil {
				tmp = scratch.Get(len(keep))
			}
			in := tmp[:len(keep)]
			if _, err = comm.SendRecv(c, partner, acc[sLo-accLo:sHi-accLo], partner, in, tagRabens); err == nil {
				err = reduceInto(c, op, dt, keep, in)
			}
		}
		lo, half = keepLo, half/2
	}
	// SendRecv settles or withdraws its receive before it returns, so tmp
	// is quiescent on the error path too.
	scratch.Put(tmp)
	return err
}

// AllreduceRabenseifner is MPICH's large-message allreduce: a
// recursive-halving reduce-scatter followed by a recursive-doubling
// allgather (the "reduce-scatter-allgather" algorithm the paper's §VI-C2
// notes usually wins for large allreduce). Non-power-of-two sizes fold.
//
// On a power-of-two communicator with distinct buffers nothing is copied
// up front: the reduce-scatter's first round reads sendbuf and writes
// recvbuf (see recHalve), and the half of recvbuf it leaves untouched is
// overwritten by the allgather.
func AllreduceRabenseifner(c comm.Comm, sendbuf, recvbuf []byte, op datatype.Op, dt datatype.Type) error {
	if err := checkReduceBufs(sendbuf, recvbuf, dt); err != nil {
		return err
	}
	p := c.Size()
	n := len(sendbuf)
	if p == 1 {
		copy(recvbuf, sendbuf)
		return nil
	}
	p2 := 1 << ilog(2, p)
	mine := sendbuf
	if p2 < p || overlaps(sendbuf, recvbuf) {
		// foldPre accumulates into recvbuf, and an in-place call's sent
		// half must survive the receive: both start from a copy.
		copy(recvbuf, sendbuf)
		mine = nil
	}
	newrank, err := foldPre(c, recvbuf, op, dt, p2)
	if err != nil {
		return err
	}
	if newrank >= 0 {
		layout := FairLayoutAligned(n, p2, dt.Size())
		if err := recHalve(c, mine, recvbuf, 0, newrank, p, p2, layout, op, dt); err != nil {
			return err
		}
		// Recursive-doubling allgather over the reduced blocks. Blocks are
		// keyed by newrank; exchanges translate newranks to real ranks.
		for mask := 1; mask < p2; mask <<= 1 {
			partner := foldReal(newrank^mask, p, p2)
			mLo, mHi := blockRange(layout, newrank&^(mask-1), mask)
			pLo, pHi := blockRange(layout, (newrank^mask)&^(mask-1), mask)
			if _, err := comm.SendRecv(c, partner, recvbuf[mLo:mHi], partner, recvbuf[pLo:pHi], tagRabens); err != nil {
				return err
			}
		}
	}
	return foldPost(c, recvbuf, p2)
}

// ReduceScatterRecHalving performs a recursive-halving reduce-scatter:
// every rank contributes the full vector sendbuf (length n) and receives
// the fully reduced fair block FairLayout(n, p)(rank) in recvbuf. Requires
// power-of-two p.
func ReduceScatterRecHalving(c comm.Comm, sendbuf, recvbuf []byte, op datatype.Op, dt datatype.Type) error {
	p := c.Size()
	if !isPow2(p) {
		return fmt.Errorf("%w: p=%d", ErrPow2Only, p)
	}
	n := len(sendbuf)
	r := c.Rank()
	layout := FairLayoutAligned(n, p, dt.Size())
	off, sz := layout(r)
	if len(recvbuf) != sz {
		return fmt.Errorf("%w: reduce-scatter recvbuf=%d want %d", ErrBadBuffer, len(recvbuf), sz)
	}
	if p == 1 {
		copy(recvbuf, sendbuf)
		return nil
	}
	// Partials accumulate in the half of the vector kept in round one,
	// which for p = 2 is the caller's own block: recvbuf itself. A recvbuf
	// carved out of sendbuf takes a private copy of the whole vector.
	mine := sendbuf
	accLo, accHi := blockRange(layout, r&(p/2), p/2)
	if overlaps(sendbuf, recvbuf) {
		mine, accLo, accHi = nil, 0, n
	}
	acc := recvbuf
	private := mine == nil || p > 2
	if private {
		acc = scratch.Get(accHi - accLo)
		defer scratch.Put(acc)
	}
	if mine == nil {
		copy(acc, sendbuf)
	}
	if err := recHalve(c, mine, acc, accLo, r, p, p, layout, op, dt); err != nil {
		return err
	}
	if private {
		copy(recvbuf, acc[off-accLo:off-accLo+sz])
	}
	return nil
}
