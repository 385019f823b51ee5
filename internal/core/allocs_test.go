package core

import (
	"runtime"
	"testing"

	scratch "exacoll/internal/buf"
	"exacoll/internal/comm"
	"exacoll/internal/datatype"
	"exacoll/internal/transport/mem"
)

// Lockstep harness: p persistent rank goroutines; each iteration dispatches
// one closure per rank and joins, so per-iteration allocations are the
// collective's own (no goroutine spawns or world setup in the measured
// region).

type lockstepWorld struct {
	w    *mem.World
	work []chan func(c comm.Comm) error
	done chan error
}

func newLockstep(p int) *lockstepWorld {
	lw := &lockstepWorld{
		w:    mem.NewWorld(p),
		work: make([]chan func(c comm.Comm) error, p),
		done: make(chan error, p),
	}
	for r := 0; r < p; r++ {
		lw.work[r] = make(chan func(c comm.Comm) error)
		go func(r int) {
			c := lw.w.Comm(r)
			for fn := range lw.work[r] {
				lw.done <- fn(c)
			}
		}(r)
	}
	return lw
}

func (lw *lockstepWorld) run(fns []func(c comm.Comm) error) error {
	for r := range lw.work {
		lw.work[r] <- fns[r]
	}
	var first error
	for range lw.work {
		if err := <-lw.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// measureAllocs reports the average allocations of one whole-communicator
// collective iteration, after a warmup that fills the scratch pool's
// freelists and the transports' request caches.
func measureAllocs(t *testing.T, lw *lockstepWorld, fns []func(c comm.Comm) error) float64 {
	t.Helper()
	for i := 0; i < 10; i++ {
		if err := lw.run(fns); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(50, func() {
		if err := lw.run(fns); err != nil {
			t.Fatal(err)
		}
	})
}

// skipIfPoisoning skips allocation pinning under the race detector: the
// pool poisons buffers there and AllocsPerRun is unreliable anyway.
func skipIfPoisoning(t *testing.T) {
	t.Helper()
	if scratch.Poisoning {
		t.Skip("scratch-pool poisoning active (race build): allocation counts not meaningful")
	}
}

// TestAllreduceSmallAllocs pins the steady-state allocation count of a
// small (4 KiB, p=8) allreduce on the mem transport. Before the
// scratch-pool work the recursive-doubling path allocated 164 times per
// call; pooled staging plus the transport's request freelists bring it to
// zero. The per-variant bounds pin what remains: the ring's bound is its
// per-call RingSchedule construction, recursive multiplying's is its
// per-round group bookkeeping — payload staging allocates in neither.
// Bounds leave a little slack so an incidental runtime allocation does
// not flake while still catching any regression of the pooling
// discipline.
func TestAllreduceSmallAllocs(t *testing.T) {
	skipIfPoisoning(t)
	const p, n = 8, 4 << 10
	for _, tc := range []struct {
		name  string
		bound float64
		run   func(c comm.Comm, sb, rb []byte) error
	}{
		{"recdbl", 8, func(c comm.Comm, sb, rb []byte) error {
			return AllreduceRecDbl(c, sb, rb, datatype.Sum, datatype.Float64)
		}},
		{"ring", 1400, func(c comm.Comm, sb, rb []byte) error {
			return AllreduceRing(c, sb, rb, datatype.Sum, datatype.Float64)
		}},
		{"recmul_k4", 160, func(c comm.Comm, sb, rb []byte) error {
			return AllreduceRecMul(c, sb, rb, datatype.Sum, datatype.Float64, 4)
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lw := newLockstep(p)
			fns := make([]func(c comm.Comm) error, p)
			for r := 0; r < p; r++ {
				sb := make([]byte, n)
				rb := make([]byte, n)
				fns[r] = func(c comm.Comm) error { return tc.run(c, sb, rb) }
			}
			if avg := measureAllocs(t, lw, fns); avg > tc.bound {
				t.Errorf("allreduce %s: %.1f allocs per collective, want <= %.0f", tc.name, avg, tc.bound)
			}
		})
	}
}

// TestBcastSmallAllocs pins the steady-state allocation count of a small
// (4 KiB, p=8) bcast on the mem transport at zero: 59 allocations per
// call before the pooling work, 11 with pooled payloads (tree and
// request slices), 0 now that the tree scratch is stack-backed
// (AppendChildren into a fixed array) and requests ride the transport's
// caches.
func TestBcastSmallAllocs(t *testing.T) {
	skipIfPoisoning(t)
	const p, n = 8, 4 << 10
	lw := newLockstep(p)
	fns := make([]func(c comm.Comm) error, p)
	for r := 0; r < p; r++ {
		buf := make([]byte, n)
		fns[r] = func(c comm.Comm) error { return BcastKnomial(c, buf, 0, 2) }
	}
	if avg := measureAllocs(t, lw, fns); avg > 0 {
		t.Errorf("bcast: %.1f allocs per collective, want 0", avg)
	}
}

// TestSegmentedAllocsBounded checks that the segmented large-message path
// recycles its staging bytes: steady-state allocations stay at roughly one
// small request object per posted receive (the mem transport hands Irecv
// requests to the caller, so they cannot be recycled), with no per-segment
// payload allocations on top. With p=4 and 256 segments each rank posts
// 6x256 receives, so the all-rank bound of 7000 is ~1.1 objects per
// receive; unpooled staging would add 4x256x1 KiB buffer allocations and
// was measured well above this bound.
func TestSegmentedAllocsBounded(t *testing.T) {
	skipIfPoisoning(t)
	const p = 4
	const n = 1 << 20 // 256 segments of 4 KiB
	const seg = 4 << 10
	lw := newLockstep(p)
	fns := make([]func(c comm.Comm) error, p)
	for r := 0; r < p; r++ {
		sb := make([]byte, n)
		rb := make([]byte, n)
		fns[r] = func(c comm.Comm) error {
			return AllreduceRingPipelined(c, sb, rb, datatype.Sum, datatype.Float64, seg)
		}
	}
	if avg := measureAllocs(t, lw, fns); avg > 7000 {
		t.Errorf("pipelined allreduce: %.1f allocs per collective, want <= 7000", avg)
	}
}

// TestHalvingLargeAllocs pins the memory discipline of the large-message
// reduce-scatter family: once the pool holds what one collective can have
// out at a time, a 16 MiB allreduce_rabenseifner on p=4 takes nothing fresh
// from it and allocates next to nothing at all. Its scratch is the largest
// block received into it — n/4 on this out-of-place path, where the old
// code took a zeroed n-byte buffer per rank per call — and the pool
// retains enough large buffers to hand every rank's back.
func TestHalvingLargeAllocs(t *testing.T) {
	skipIfPoisoning(t)
	const p, n = 4, 16 << 20
	defer scratch.Drain()
	// What a rank can have out at once: its n/4 scratch, and messages
	// staged because they arrived before their receive was posted — n/2
	// or n/4 bytes, from this round's partner and a fast next one.
	var warm [][]byte
	for r := 0; r < p; r++ {
		warm = append(warm, scratch.Get(n/4), scratch.Get(n/4), scratch.Get(n/2), scratch.Get(n/2))
	}
	for _, b := range warm {
		scratch.Put(b)
	}
	lw := newLockstep(p)
	fns := make([]func(c comm.Comm) error, p)
	for r := 0; r < p; r++ {
		sb := make([]byte, n)
		rb := make([]byte, n)
		fns[r] = func(c comm.Comm) error {
			return AllreduceRabenseifner(c, sb, rb, datatype.Sum, datatype.Float64)
		}
	}
	if err := lw.run(fns); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fresh := scratch.Stats().Fresh
	for i := 0; i < runs; i++ {
		if err := lw.run(fns); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := scratch.Stats().Fresh - fresh; got != 0 {
		t.Errorf("%d fresh pool allocations over %d warm collectives, want 0", got, runs)
	}
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > n/2 {
		t.Errorf("%d bytes allocated per collective, want far below the %d-byte vector", perRun, n)
	}
}
