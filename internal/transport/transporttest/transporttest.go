// Package transporttest is the transport-independent conformance suite:
// it runs every Table I generalized algorithm over a candidate transport
// and demands byte-identical results to the same pinned schedule run
// over the mem reference world.
//
// Because reference and candidate execute the identical algorithm,
// radix, and rank count, floating-point reductions combine in the same
// association order — so even rounding-sensitive float64 payloads must
// match bit for bit. A transport that reorders matched messages,
// truncates a payload, corrupts a byte, or mishandles zero-count
// messages fails loudly here.
package transporttest

import (
	"bytes"
	"fmt"
	"testing"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
	"exacoll/internal/transport/match"
	"exacoll/internal/transport/mem"
	"exacoll/internal/tuning"
)

// World is the minimal harness surface a transport under test provides.
// Comm may attach ranks lazily; each rank's handle is driven from its
// own goroutine.
type World interface {
	Comm(rank int) comm.Comm
	Close()
}

// Factory builds a fresh p-rank world on the transport under test.
type Factory func(t *testing.T, p int) World

// Case is one Table I conformance case: a pinned (algorithm, radix).
type Case struct {
	Op  core.CollOp
	Alg string
	K   int
}

// TableICases enumerates the paper's 10 generalized algorithms, each at
// its baseline-equivalent radix and one genuinely generalized radix.
func TableICases() []Case {
	var cases []Case
	for _, a := range core.TableIAlgorithms() {
		ks := []int{a.DefaultK, 3}
		if a.DefaultK == 3 {
			ks = []int{2, 3}
		}
		for _, k := range ks {
			cases = append(cases, Case{Op: a.Op, Alg: a.Name, K: k})
		}
	}
	return cases
}

// pinned returns a one-rung table that always selects (alg, k).
func pinned(c Case) *tuning.Table {
	return &tuning.Table{Machine: "transporttest", Ops: map[string][]tuning.Entry{
		c.Op.String(): {{Alg: c.Alg, K: c.K}},
	}}
}

// messyVector is rank r's float64 contribution with rounding-sensitive
// values: a transport that perturbs the combine order cannot match the
// reference bit for bit.
func messyVector(r, elems int) []byte {
	v := make([]float64, elems)
	for i := range v {
		v[i] = 0.1*float64(r+1) + 0.3*float64(i) + float64(i%7)/3.0
	}
	return datatype.EncodeFloat64(v)
}

// intVector is rank r's int64 contribution (exact under any
// association — isolates data integrity from rounding).
func intVector(r, elems int) []byte {
	v := make([]int64, elems)
	for i := range v {
		v[i] = int64(r+1)*1000 + int64(i) - 37
	}
	return datatype.EncodeInt64(v)
}

// buildArgs returns rank's Args for (op, elems) plus the buffer the
// result lands in.
func buildArgs(op core.CollOp, rank, p, elems, root int, ints bool) (core.Args, []byte) {
	payload := messyVector
	dt := datatype.Float64
	if ints {
		payload = intVector
		dt = datatype.Int64
	}
	a := core.Args{Op: datatype.Sum, Type: dt, Root: root}
	n := elems * 8
	switch op {
	case core.OpBcast:
		a.SendBuf = make([]byte, n)
		if rank == root {
			copy(a.SendBuf, payload(root, elems))
		}
		return a, a.SendBuf
	case core.OpReduce:
		a.SendBuf = payload(rank, elems)
		if rank == root {
			a.RecvBuf = make([]byte, n)
		}
		return a, a.RecvBuf
	case core.OpAllgather:
		a.SendBuf = payload(rank, elems)
		a.RecvBuf = make([]byte, n*p)
		return a, a.RecvBuf
	case core.OpAllreduce:
		a.SendBuf = payload(rank, elems)
		a.RecvBuf = make([]byte, n)
		return a, a.RecvBuf
	}
	panic(fmt.Sprintf("transporttest: unhandled op %v", op))
}

// runRanks runs fn on every rank of w concurrently and returns each rank's
// result.
func runRanks(t *testing.T, w World, p int, what string, fn func(c comm.Comm) ([]byte, error)) [][]byte {
	t.Helper()
	out := make([][]byte, p)
	errs := make([]error, p)
	done := make(chan struct{}, p)
	for r := 0; r < p; r++ {
		go func(r int, c comm.Comm) {
			out[r], errs[r] = fn(c)
			done <- struct{}{}
		}(r, w.Comm(r))
	}
	for r := 0; r < p; r++ {
		<-done
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s rank %d: %v", what, r, err)
		}
	}
	return out
}

// runWorld executes the pinned collective on every rank of w and
// returns each rank's result buffer.
func runWorld(t *testing.T, w World, tab *tuning.Table, c Case, p, elems, root int, ints bool) [][]byte {
	t.Helper()
	what := fmt.Sprintf("%s k=%d p=%d elems=%d root=%d", c.Alg, c.K, p, elems, root)
	return runRanks(t, w, p, what, func(cm comm.Comm) ([]byte, error) {
		a, res := buildArgs(c.Op, cm.Rank(), p, elems, root, ints)
		return res, tab.Run(cm, c.Op, a)
	})
}

// memWorld adapts the reference substrate.
type memWorld struct{ w *mem.World }

func (m memWorld) Comm(rank int) comm.Comm { return m.w.Comm(rank) }
func (m memWorld) Close()                  { m.w.Close() }

// deliveryCounter is what the mem, shm and tcp handles expose of their
// matcher's in-place/staged accounting.
type deliveryCounter interface {
	DeliveryStats() (inPlace, staged match.Deliveries)
}

// CheckInPlace asserts the one delivery rule on a world of at least two
// ranks: a message whose receive is already posted is filled in place —
// one copy, counted with its bytes — whether it is small enough to travel
// inline or large enough to stream, and whether the receive was posted by
// Irecv or by an exchange; a message that arrives first is staged. A
// transport that reassembles before it delivers (striped tcp above its
// threshold) does not satisfy it and is not held to it.
func CheckInPlace(t *testing.T, w World) {
	t.Helper()
	c0, c1 := w.Comm(0), w.Comm(1)
	counter, ok := c0.(deliveryCounter)
	if !ok {
		t.Fatalf("%T does not report delivery statistics", c0)
	}
	const tag = comm.TagUser + 78
	delivered := func(step func()) (inPlace, staged match.Deliveries) {
		ip0, st0 := counter.DeliveryStats()
		step()
		ip1, st1 := counter.DeliveryStats()
		return match.Deliveries{Msgs: ip1.Msgs - ip0.Msgs, Bytes: ip1.Bytes - ip0.Bytes},
			match.Deliveries{Msgs: st1.Msgs - st0.Msgs, Bytes: st1.Bytes - st0.Bytes}
	}
	for _, n := range []int{100, 256 << 10} {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		got := make([]byte, n)

		ip, st := delivered(func() {
			req, err := c0.Irecv(1, tag, got)
			if err != nil {
				t.Fatal(err)
			}
			if err := c1.Send(0, tag, msg); err != nil {
				t.Fatal(err)
			}
			if err := req.Wait(); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("pre-posted %d-byte receive: %v", n, err)
			}
		})
		if ip != (match.Deliveries{Msgs: 1, Bytes: uint64(n)}) || st.Msgs != 0 {
			t.Errorf("%d bytes into a pre-posted receive: %+v in place, %+v staged; want 1 message in place", n, ip, st)
		}

		ip, st = delivered(func() {
			// Rank 1 replies only once it holds the exchange's message,
			// which SendRecv sends only after posting its receive.
			replied := make(chan error, 1)
			go func() {
				_, err := c1.Recv(0, tag, make([]byte, n))
				if err == nil {
					err = c1.Send(0, tag, msg)
				}
				replied <- err
			}()
			clear(got)
			if _, err := comm.SendRecv(c0, 1, msg, 1, got, tag); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("%d-byte exchange: %v", n, err)
			}
			if err := <-replied; err != nil {
				t.Fatal(err)
			}
		})
		if ip != (match.Deliveries{Msgs: 1, Bytes: uint64(n)}) || st.Msgs != 0 {
			t.Errorf("%d-byte reply to an exchange: %+v in place, %+v staged; want 1 message in place", n, ip, st)
		}

		ip, st = delivered(func() {
			if err := c1.Send(0, tag, msg); err != nil {
				t.Fatal(err)
			}
			// Another round trip behind it: the first message has been
			// delivered (and, with no receive posted, parked) by the time
			// the second is received.
			if err := c1.Send(0, tag+1, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c0.Recv(1, tag+1, nil); err != nil {
				t.Fatal(err)
			}
			clear(got)
			if _, err := c0.Recv(1, tag, got); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("%d-byte message sent before its receive: %v", n, err)
			}
		})
		if st.Msgs < 1 || st.Bytes < uint64(n) || ip.Bytes != 0 {
			t.Errorf("%d bytes sent before the receive was posted: %+v in place, %+v staged; want it staged", n, ip, st)
		}
	}
}

// RunTableI drives the full Table I conformance matrix over the
// transport built by factory: all 10 generalized algorithms at two
// radixes each, world sizes {2, 5, 8, 16} (trimmed under -short),
// zero-count and multi-KiB payloads, both float64 (bit-exactness under
// identical association) and int64, and both endpoints of the root
// range for rooted collectives. The recursive-halving reduce-scatter
// family rides along (RunHalving): not Table I algorithms, but the
// large-message composite every transport's exchange path is tuned for.
func RunTableI(t *testing.T, factory Factory) {
	t.Run("reduce_scatter_family", func(t *testing.T) {
		t.Parallel()
		RunHalving(t, factory)
	})
	ps := []int{2, 5, 8, 16}
	elemsSet := []int{0, 1, 33, 1024}
	if testing.Short() {
		ps = []int{2, 8}
		elemsSet = []int{0, 33}
	}
	for _, c := range TableICases() {
		c := c
		t.Run(fmt.Sprintf("%s_k%d", c.Alg, c.K), func(t *testing.T) {
			t.Parallel()
			tab := pinned(c)
			for _, p := range ps {
				// One reference and one candidate world per (case, p):
				// collectives run back to back on the same pair, which
				// also checks the transport leaves no residue (a stray
				// buffered message would mismatch the next run).
				ref := mem.NewWorld(p)
				w := factory(t, p)
				for _, elems := range elemsSet {
					roots := []int{0}
					if (c.Op == core.OpBcast || c.Op == core.OpReduce) && elems > 0 {
						roots = []int{0, p - 1}
					}
					for _, root := range roots {
						for _, ints := range []bool{false, true} {
							if ints && (c.Op == core.OpBcast || c.Op == core.OpAllgather) {
								// Data moves verbatim: the payload type
								// cannot change the bytes on the wire.
								continue
							}
							want := runWorld(t, memWorld{ref}, tab, c, p, elems, root, ints)
							got := runWorld(t, w, tab, c, p, elems, root, ints)
							for r := 0; r < p; r++ {
								if !bytes.Equal(want[r], got[r]) {
									t.Fatalf("%s k=%d p=%d elems=%d root=%d ints=%v rank %d: transport result differs from mem reference",
										c.Alg, c.K, p, elems, root, ints, r)
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
