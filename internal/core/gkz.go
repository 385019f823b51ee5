package core

import (
	scratch "exacoll/internal/buf"
	"exacoll/internal/comm"
	"exacoll/internal/datatype"
)

// AllreduceGeneralizedKZ is the Kolmakov–Zhang generalized allreduce
// (arXiv:2004.09362): Rabenseifner's reduce-scatter-allgather composite
// re-parameterized by a group size k. The vector is split into k^m blocks
// (k^m the largest power of k ≤ p); m rounds of k-way exchange reduce-
// scatter it by base-k digit, and m mirrored rounds allgather the reduced
// blocks back. k=2 recovers Rabenseifner's algorithm; larger k trades
// fewer, fatter rounds against more concurrent messages per round —
// exactly the radix knob of the paper's Table I family, applied to the
// composite rather than a single kernel.
//
// Ranks beyond k^m fold their vectors onto rank mod k^m before the rounds
// and receive the finished result after, generalizing MPICH's pairwise
// pre/post phases to the up-to-(k−1) extras a power-of-k subgroup can
// leave behind.
func AllreduceGeneralizedKZ(c comm.Comm, sendbuf, recvbuf []byte, op datatype.Op, dt datatype.Type, k int) error {
	if err := checkReduceBufs(sendbuf, recvbuf, dt); err != nil {
		return err
	}
	if err := checkRadix(k); err != nil {
		return err
	}
	p := c.Size()
	r := c.Rank()
	n := len(sendbuf)
	copy(recvbuf, sendbuf)
	if p == 1 {
		return nil
	}
	p2 := ipow(k, ilog(k, p))

	// Fold: extras ship their whole vector to their base rank and wait for
	// the result; base ranks absorb up to k−1 extras each.
	if r >= p2 {
		if err := c.Send(r%p2, tagGKZ, recvbuf); err != nil {
			return err
		}
		_, err := c.Recv(r%p2, tagGKZ+2, recvbuf)
		return err
	}
	if p2 < p {
		tmp := scratch.Get(n)
		for e := r + p2; e < p; e += p2 {
			if _, err := c.Recv(e, tagGKZ, tmp); err != nil {
				scratch.Put(tmp)
				return err
			}
			if err := reduceInto(c, op, dt, recvbuf, tmp); err != nil {
				scratch.Put(tmp)
				return err
			}
		}
		scratch.Put(tmp)
	}

	if p2 > 1 {
		layout := FairLayoutAligned(n, p2, dt.Size())
		// Reduce-scatter by base-k digit, most significant first: each
		// round narrows the active block range [lo, lo+k·dist) to the
		// sub-range holding our own block, sending our partials of the
		// other k−1 sub-ranges to the ranks that keep them.
		lo := 0
		reqs := make([]comm.Request, 0, 2*(k-1))
		staging := make([][]byte, 0, k-1)
		for dist := p2 / k; dist >= 1; dist /= k {
			d := (r - lo) / dist // my digit: which sub-range I keep
			keepLo, keepHi := blockRange(layout, lo+d*dist, dist)
			keepSz := keepHi - keepLo
			reqs = reqs[:0]
			staging = staging[:0]
			for j := 0; j < k; j++ {
				if j == d {
					continue
				}
				partner := lo + j*dist + (r-lo)%dist
				st := scratch.Get(keepSz)
				req, err := c.Irecv(partner, tagGKZ+1, st)
				if err != nil {
					// The fresh staging buffer saw no request yet and can be
					// recycled; earlier posts may still target their staging
					// buffers, and settling them can deadlock when every
					// rank fails the same round, so those leak to the GC.
					scratch.Put(st)
					return err
				}
				staging = append(staging, st)
				reqs = append(reqs, req)
			}
			for j := 0; j < k; j++ {
				if j == d {
					continue
				}
				partner := lo + j*dist + (r-lo)%dist
				sLo, sHi := blockRange(layout, lo+j*dist, dist)
				req, err := c.Isend(partner, tagGKZ+1, recvbuf[sLo:sHi])
				if err != nil {
					return err // posted receives still target staging: leak
				}
				reqs = append(reqs, req)
			}
			err := comm.WaitAll(reqs...)
			for _, st := range staging {
				if err == nil {
					err = reduceInto(c, op, dt, recvbuf[keepLo:keepHi], st)
				}
				scratch.Put(st)
			}
			if err != nil {
				return err
			}
			lo += d * dist
		}
		// Allgather mirror: rounds widen the held range k-fold, every
		// group member broadcasting its range to the k−1 others. Receives
		// land directly in recvbuf — the ranges are disjoint.
		for dist := 1; dist < p2; dist *= k {
			glo := r - r%(dist*k)
			base := r - r%dist
			myLo, myHi := blockRange(layout, base, dist)
			reqs = reqs[:0]
			for j := 0; j < k; j++ {
				peerBase := glo + j*dist
				if peerBase == base {
					continue
				}
				partner := peerBase + r%dist
				pLo, pHi := blockRange(layout, peerBase, dist)
				req, err := c.Irecv(partner, tagGKZ+1, recvbuf[pLo:pHi])
				if err != nil {
					// Earlier posts still target recvbuf; settling can
					// deadlock when every rank fails the round, so the
					// posts are left dangling (caller must not reuse the
					// buffer after an error).
					return err
				}
				reqs = append(reqs, req)
			}
			for j := 0; j < k; j++ {
				peerBase := glo + j*dist
				if peerBase == base {
					continue
				}
				partner := peerBase + r%dist
				req, err := c.Isend(partner, tagGKZ+1, recvbuf[myLo:myHi])
				if err != nil {
					return err // posted receives still target recvbuf: leak
				}
				reqs = append(reqs, req)
			}
			if err := comm.WaitAll(reqs...); err != nil {
				return err
			}
		}
	}

	// Unfold: hand the finished vector back to the extras.
	for e := r + p2; e < p; e += p2 {
		if err := c.Send(e, tagGKZ+2, recvbuf); err != nil {
			return err
		}
	}
	return nil
}
