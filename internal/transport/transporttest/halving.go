package transporttest

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
)

// The recursive-halving reduce-scatter family — allreduce_rabenseifner and
// reducescatter_rechalving — runs its first round out of place on a
// power-of-two communicator with distinct buffers (send from sendbuf,
// receive straight into recvbuf, reduce sendbuf's kept half into it), which
// flips that round's operand order to incoming ⊕ mine. The cases here hold
// it to halvingReference, which folds every round the way the algorithm did
// before that rework: mine ⊕ incoming throughout, full copy first.

// halvingReference returns the allreduce of x (one vector per rank) exactly
// as the in-place recursive halving computes it: odd ranks below 2·(p−p2)
// absorb their even neighbour (mine ⊕ incoming), then log2(p2) halving
// rounds each combine mine ⊕ partner's, and block b of the result is the
// one rank b of the power-of-two group ends up holding.
func halvingReference(t *testing.T, x [][]byte, op datatype.Op, dt datatype.Type) []byte {
	t.Helper()
	p := len(x)
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	rem := p - p2
	apply := func(mine, incoming []byte) []byte {
		out := bytes.Clone(mine)
		if err := datatype.Apply(op, dt, out, incoming); err != nil {
			t.Fatal(err)
		}
		return out
	}
	acc := make([][]byte, p2)
	for nr := range acc {
		if nr < rem {
			acc[nr] = apply(x[2*nr+1], x[2*nr])
		} else {
			acc[nr] = bytes.Clone(x[nr+rem])
		}
	}
	// Whole vectors are combined every round; only the range a rank keeps
	// is ever read again, so the rest is harmless surplus.
	for mask := p2 / 2; mask >= 1; mask /= 2 {
		next := make([][]byte, p2)
		for nr := range acc {
			next[nr] = apply(acc[nr], acc[nr^mask])
		}
		acc = next
	}
	n := len(x[0])
	out := make([]byte, n)
	layout := core.FairLayoutAligned(n, p2, dt.Size())
	for b := 0; b < p2; b++ {
		off, sz := layout(b)
		copy(out[off:off+sz], acc[b][off:off+sz])
	}
	return out
}

// signedZeroNaNVector is rank r's float64 contribution to the operand-order
// probe: +0, −0 and NaN placed so that every pair of ranks meets every
// combination at some element. min and max are where a non-commutative
// kernel would show (min(+0, −0) vs min(−0, +0), NaN on either side).
func signedZeroNaNVector(r, elems int) []byte {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.5}
	v := make([]float64, elems)
	for i := range v {
		v[i] = specials[(i/(r+1)+r)%len(specials)]
	}
	return datatype.EncodeFloat64(v)
}

// RunHalving drives the reduce-scatter family over the transport built by
// factory: power-of-two worlds (the out-of-place first round) and folded
// ones, distinct and aliased buffers, a vector of one element (n = 8 B, so
// most fair blocks are empty), zero count, and rounding- and
// operand-order-sensitive payloads — every rank's result bit for bit
// against halvingReference.
func RunHalving(t *testing.T, factory Factory) {
	payloads := []struct {
		name string
		op   datatype.Op
		dt   datatype.Type
		gen  func(r, elems int) []byte
	}{
		{"sum_f64", datatype.Sum, datatype.Float64, messyVector},
		{"sum_i64", datatype.Sum, datatype.Int64, intVector},
		{"min_f64_zeros_nan", datatype.Min, datatype.Float64, signedZeroNaNVector},
		{"max_f64_zeros_nan", datatype.Max, datatype.Float64, signedZeroNaNVector},
	}
	allreduce, err := core.Lookup("allreduce_rabenseifner")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 5, 6, 8} {
		w := factory(t, p)
		for _, elems := range []int{0, 1, 33, 1024} {
			for _, pl := range payloads {
				x := make([][]byte, p)
				for r := range x {
					x[r] = pl.gen(r, elems)
				}
				want := halvingReference(t, x, pl.op, pl.dt)
				for _, inPlace := range []bool{false, true} {
					what := fmt.Sprintf("p=%d elems=%d %s inplace=%v", p, elems, pl.name, inPlace)
					got := runRanks(t, w, p, what, func(c comm.Comm) ([]byte, error) {
						a := core.Args{SendBuf: bytes.Clone(x[c.Rank()]), Op: pl.op, Type: pl.dt}
						a.RecvBuf = a.SendBuf
						if !inPlace {
							a.RecvBuf = make([]byte, len(a.SendBuf))
						}
						return a.RecvBuf, allreduce.Run(c, a)
					})
					for r := range got {
						if !bytes.Equal(got[r], want) {
							t.Fatalf("allreduce_rabenseifner %s rank %d: differs from the in-place-order reference", what, r)
						}
					}
					if p&(p-1) != 0 {
						continue // reducescatter_rechalving is power-of-two only
					}
					layout := core.FairLayoutAligned(len(want), p, pl.dt.Size())
					got = runRanks(t, w, p, what, func(c comm.Comm) ([]byte, error) {
						off, sz := layout(c.Rank())
						send := bytes.Clone(x[c.Rank()])
						recv := make([]byte, sz)
						if inPlace {
							recv = send[off : off+sz] // the caller's block, carved out of sendbuf
						}
						err := core.ReduceScatterRecHalving(c, send, recv, pl.op, pl.dt)
						return recv, err
					})
					for r := range got {
						if off, sz := layout(r); !bytes.Equal(got[r], want[off:off+sz]) {
							t.Fatalf("reducescatter_rechalving %s rank %d: differs from the in-place-order reference", what, r)
						}
					}
				}
			}
		}
		w.Close()
	}
}
