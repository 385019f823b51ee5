package transporttest

import (
	"bytes"
	"fmt"
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
	"exacoll/internal/transport/mem"
	"exacoll/internal/tuning"
)

// VCollCase is one vector-collective conformance case: a pinned
// (algorithm, radix) driven through the tuning dispatch layer.
type VCollCase struct {
	Op  core.CollOp
	Alg string
	K   int
}

// VCollCases enumerates the vector/irregular workload class: both
// allgatherv algorithms, the ring reduce-scatterv, both alltoallv
// algorithms, and the Kolmakov–Zhang generalized allreduce that rides
// along with them (k=2 is the Rabenseifner-equivalent baseline radix).
func VCollCases() []VCollCase {
	return []VCollCase{
		{core.OpAllgatherv, "allgatherv_ring", 0},
		{core.OpAllgatherv, "allgatherv_knomial_bruck", 2},
		{core.OpAllgatherv, "allgatherv_knomial_bruck", 3},
		{core.OpReduceScatterv, "reducescatterv_ring", 0},
		{core.OpAlltoallv, "alltoallv_linear", 0},
		{core.OpAlltoallv, "alltoallv_bruck", 0},
		{core.OpAllreduce, "allreduce_gkz", 2},
		{core.OpAllreduce, "allreduce_gkz", 3},
	}
}

// vcollDist is one count-skew shape, parameterized by a unit block size
// (a multiple of 8 so reductions stay element-aligned).
type vcollDist struct {
	name string
	// counts returns the shared per-rank byte-count vector.
	counts func(p, unit int) []int
	// matrix returns the shared p×p alltoallv byte-count matrix.
	matrix func(p, unit int) []int
}

// vcollDists covers the three shapes the workload class must survive:
// uniform (the degenerate regular case), ragged with per-rank zeros, and
// one-hot (a single contributor — the hardest skew, every other count
// zero).
func vcollDists() []vcollDist {
	return []vcollDist{
		{
			name:   "uniform",
			counts: func(p, unit int) []int { return repeatCount(p, unit) },
			matrix: func(p, unit int) []int { return repeatCount(p*p, unit) },
		},
		{
			name: "ragged",
			counts: func(p, unit int) []int {
				c := make([]int, p)
				for r := range c {
					c[r] = ((r * 37) % 5) * unit // zeros at r ≡ 0 (mod 5)
				}
				return c
			},
			matrix: func(p, unit int) []int {
				m := make([]int, p*p)
				for i := 0; i < p; i++ {
					for j := 0; j < p; j++ {
						m[i*p+j] = ((i*31 + j*17) % 5) * unit
					}
				}
				return m
			},
		},
		{
			name: "onehot",
			counts: func(p, unit int) []int {
				c := make([]int, p)
				c[p/2] = unit * p
				return c
			},
			matrix: func(p, unit int) []int {
				m := make([]int, p*p)
				for i := 0; i < p; i++ {
					m[i*p+(i+1)%p] = unit * p
				}
				return m
			},
		},
	}
}

func repeatCount(n, v int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = v
	}
	return c
}

// buildVCollArgs returns rank's Args for a case over one distribution
// plus the buffer the result lands in. counts is the shared p-vector
// (allgatherv/reduce-scatterv, and the total for the allreduce rider);
// m the shared p×p matrix (alltoallv).
func buildVCollArgs(op core.CollOp, rank, p int, counts, m []int, ints bool) (core.Args, []byte) {
	payload := messyVector
	dt := datatype.Float64
	if ints {
		payload = intVector
		dt = datatype.Int64
	}
	a := core.Args{Op: datatype.Sum, Type: dt}
	switch op {
	case core.OpAllgatherv:
		total := sumInts(counts)
		a.Counts = counts
		a.SendBuf = payload(rank, counts[rank]/8)
		a.RecvBuf = make([]byte, total)
		return a, a.RecvBuf
	case core.OpReduceScatterv:
		total := sumInts(counts)
		a.Counts = counts
		a.SendBuf = payload(rank, total/8)
		a.RecvBuf = make([]byte, counts[rank])
		return a, a.RecvBuf
	case core.OpAlltoallv:
		sendTotal, recvTotal := 0, 0
		for q := 0; q < p; q++ {
			sendTotal += m[rank*p+q]
			recvTotal += m[q*p+rank]
		}
		a.Counts = m
		a.SendBuf = payload(rank, sendTotal/8)
		a.RecvBuf = make([]byte, recvTotal)
		return a, a.RecvBuf
	case core.OpAllreduce:
		total := sumInts(counts)
		a.SendBuf = payload(rank, total/8)
		a.RecvBuf = make([]byte, total)
		return a, a.RecvBuf
	}
	panic(fmt.Sprintf("transporttest: unhandled vcoll op %v", op))
}

func sumInts(v []int) int {
	t := 0
	for _, n := range v {
		t += n
	}
	return t
}

// runVCollWorld executes the pinned vector collective on every rank of w
// and returns each rank's result buffer.
func runVCollWorld(t *testing.T, w World, tab *tuning.Table, c VCollCase, p int, counts, m []int, ints bool) [][]byte {
	t.Helper()
	what := fmt.Sprintf("%s k=%d p=%d ints=%v", c.Alg, c.K, p, ints)
	return runRanks(t, w, p, what, func(cm comm.Comm) ([]byte, error) {
		a, res := buildVCollArgs(c.Op, cm.Rank(), p, counts, m, ints)
		return res, tab.Run(cm, c.Op, a)
	})
}

// RunVColl drives the skewed-size conformance matrix over the transport
// built by factory: every vector-collective algorithm (plus the
// generalized allreduce) over uniform, ragged-with-zeros, and one-hot
// count distributions, unit block sizes from one element up to a
// stripe-threshold-straddling 1032 bytes (the striped TCP transport
// splits payloads above 1 KiB, so those blocks cross the
// segment-reassembly path), with both rounding-sensitive float64 and
// exact int64 payloads — all compared bit for bit against the mem
// reference running the identical pinned (algorithm, radix).
func RunVColl(t *testing.T, factory Factory) {
	ps := []int{2, 5, 8, 16}
	units := []int{8, 264, 1032}
	if testing.Short() {
		ps = []int{2, 8}
		units = []int{8, 1032}
	}
	for _, c := range VCollCases() {
		c := c
		t.Run(fmt.Sprintf("%s_k%d", c.Alg, c.K), func(t *testing.T) {
			t.Parallel()
			tab := pinned(Case{Op: c.Op, Alg: c.Alg, K: c.K})
			for _, p := range ps {
				// One reference and one candidate world per (case, p):
				// distributions run back to back on the same pair, so
				// transport residue from a skewed run would corrupt the
				// next (see RunTableI).
				ref := mem.NewWorld(p)
				w := factory(t, p)
				for _, d := range vcollDists() {
					for _, unit := range units {
						counts := d.counts(p, unit)
						m := d.matrix(p, unit)
						for _, ints := range []bool{false, true} {
							want := runVCollWorld(t, memWorld{ref}, tab, c, p, counts, m, ints)
							got := runVCollWorld(t, w, tab, c, p, counts, m, ints)
							for r := 0; r < p; r++ {
								if !bytes.Equal(want[r], got[r]) {
									t.Fatalf("%s k=%d p=%d dist=%s unit=%d ints=%v rank %d: transport result differs from mem reference",
										c.Alg, c.K, p, d.name, unit, ints, r)
								}
							}
						}
					}
				}
				w.Close()
				ref.Close()
			}
		})
	}
}
