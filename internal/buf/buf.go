// Package buf provides size-classed pooling of scratch byte buffers for
// the collective hot path.
//
// Collective algorithms allocate staging space on every invocation
// (receive staging, accumulators, packed blocks, transport payload
// copies). Allocating fresh slices per call makes the garbage collector a
// hidden term in the (α, β, γ) cost model; this pool recycles them.
//
// Buffers are grouped in power-of-two size classes from 64 B to 16 MiB.
// Each class keeps a small LIFO free list behind a mutex — deliberately
// not sync.Pool, which would box the slice header into an interface and
// cost one allocation per Put, defeating the purpose on the small-message
// path. The per-class retention cap bounds pinned memory and returns the
// excess to the GC: a class keeps 4 MiB worth of buffers (retainBytes) but
// at least 8 (retainMin) — one for every rank of an eight-rank in-process
// world, so that a large-message collective whose ranks each take one
// scratch buffer of a 1–16 MiB class gets all of them back from the pool
// the next time instead of re-making and re-zeroing them. Total pinned
// memory is therefore capped at 14 classes · 4 MiB + 8 · (1+2+4+8+16) MiB
// = 304 MiB, reached only by a process that has used every class that
// heavily.
//
// Ownership rules:
//   - Get(n) returns a buffer of length n with UNDEFINED contents. Callers
//     that need zeroed scratch must clear it (or use GetZeroed).
//   - Put(b) recycles a buffer previously returned by Get. Pass back the
//     same slice Get returned (same backing array, full capacity); resliced
//     heads/tails are silently dropped rather than corrupting the pool.
//   - Never Put a buffer that an in-flight operation (posted receive,
//     pending send, outstanding schedule) may still read or write. When an
//     error path cannot prove the buffer is quiescent, leaking it to the
//     GC is correct; recycling it is not.
//   - Put is idempotent-unsafe: double-Put is a caller bug. Race-detector
//     builds poison buffers on Put so use-after-Put reads surface in tests.
package buf

import (
	"sync"
	"sync/atomic"
)

const (
	minBits = 6  // smallest class: 64 B
	maxBits = 24 // largest class: 16 MiB

	// retainBytes bounds the memory each class may pin on its free list.
	// Small classes keep many buffers, large classes only a couple.
	retainBytes = 4 << 20
	// retainMin keeps at least this many buffers per class even when the
	// class size exceeds retainBytes / retainMin.
	retainMin = 8
)

type class struct {
	mu   sync.Mutex
	free [][]byte
	max  int
}

var classes = func() []*class {
	cs := make([]*class, maxBits-minBits+1)
	for i := range cs {
		n := retainBytes >> (uint(i) + minBits)
		if n < retainMin {
			n = retainMin
		}
		cs[i] = &class{max: n}
	}
	return cs
}()

// gets and puts count ownership transfers: every Get of a non-empty
// buffer and every Put of a non-empty buffer, whether or not the bytes
// came from (or return to) a free list. Their difference is the number of
// buffers currently owned by callers, so leak tests can assert it returns
// to a baseline.
//
// fresh counts the Gets no free list could serve, which therefore
// allocated (and zeroed) new memory.
var gets, puts, fresh atomic.Uint64

// PoolStats is a snapshot of the pool's ownership counters.
type PoolStats struct {
	// Gets counts Get calls that handed a non-empty buffer to a caller.
	Gets uint64
	// Puts counts Put calls that returned a non-empty buffer (including
	// buffers the pool then dropped for being off-class).
	Puts uint64
	// Fresh counts the Gets served by a new allocation rather than a
	// free list: 0 over an interval means the pool covered its load.
	Fresh uint64
}

// Outstanding is the number of buffers currently held by callers.
func (s PoolStats) Outstanding() uint64 { return s.Gets - s.Puts }

// Stats returns the current ownership counters. The snapshot is only
// meaningfully quiescent when no collective is in flight.
func Stats() PoolStats {
	return PoolStats{Gets: gets.Load(), Puts: puts.Load(), Fresh: fresh.Load()}
}

// classIndex returns the index of the smallest class holding n bytes, or
// -1 if n exceeds the largest class.
func classIndex(n int) int {
	if n > 1<<maxBits {
		return -1
	}
	c := 0
	for 1<<(uint(c)+minBits) < n {
		c++
	}
	return c
}

// Get returns a buffer of length n with undefined contents. Buffers larger
// than the biggest size class are freshly allocated and will be dropped on
// Put. Get(0) returns nil.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	gets.Add(1)
	ci := classIndex(n)
	if ci < 0 {
		fresh.Add(1)
		return make([]byte, n)
	}
	c := classes[ci]
	c.mu.Lock()
	if last := len(c.free) - 1; last >= 0 {
		b := c.free[last]
		c.free[last] = nil
		c.free = c.free[:last]
		c.mu.Unlock()
		return b[:n]
	}
	c.mu.Unlock()
	fresh.Add(1)
	return make([]byte, n, 1<<(uint(ci)+minBits))
}

// GetZeroed returns a buffer of length n with all bytes zero.
func GetZeroed(n int) []byte {
	b := Get(n)
	clear(b)
	return b
}

// Put recycles a buffer returned by Get. Buffers whose capacity is not an
// exact class size (resliced, or oversized from Get) are dropped. Put(nil)
// is a no-op.
func Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	puts.Add(1)
	ci := classIndex(cap(b))
	if ci < 0 || cap(b) != 1<<(uint(ci)+minBits) {
		return
	}
	b = b[:cap(b)]
	poison(b)
	c := classes[ci]
	c.mu.Lock()
	if len(c.free) < c.max {
		c.free = append(c.free, b)
	}
	c.mu.Unlock()
}

// Drain empties every free list, returning all pooled memory to the GC.
// Intended for tests and benchmarks that need a cold pool.
func Drain() {
	for _, c := range classes {
		c.mu.Lock()
		c.free = nil
		c.mu.Unlock()
	}
}
