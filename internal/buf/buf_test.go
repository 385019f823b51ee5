package buf

import (
	"sync"
	"testing"
)

func TestClassIndex(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{4096, 6}, {4097, 7},
		{1 << 24, maxBits - minBits}, {1<<24 + 1, -1},
	}
	for _, tc := range cases {
		if got := classIndex(tc.n); got != tc.want {
			t.Errorf("classIndex(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	defer Drain()
	for _, n := range []int{1, 63, 64, 65, 1000, 4096, 1 << 20} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b))
		}
		for i := range b {
			b[i] = byte(i)
		}
		Put(b)
		b2 := Get(n)
		if len(b2) != n {
			t.Fatalf("Get(%d) after Put: len = %d", n, len(b2))
		}
		Put(b2)
	}
}

func TestGetReusesBuffer(t *testing.T) {
	defer Drain()
	Drain()
	b := Get(100)
	b[0] = 42
	Put(b)
	b2 := Get(80)
	// Same class (128 B): must come back from the free list.
	if cap(b2) != cap(b) || &b2[0] != &b[0] {
		t.Error("Get after Put did not reuse the pooled buffer")
	}
	if Poisoning && b2[0] == 42 {
		t.Error("race build: pooled buffer not poisoned on Put")
	}
}

func TestGetZeroed(t *testing.T) {
	defer Drain()
	b := Get(256)
	for i := range b {
		b[i] = 0xFF
	}
	Put(b)
	z := GetZeroed(200)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed: byte %d = %#x, want 0", i, v)
		}
	}
	Put(z)
}

func TestZeroAndOversize(t *testing.T) {
	if Get(0) != nil {
		t.Error("Get(0) != nil")
	}
	if Get(-5) != nil {
		t.Error("Get(-5) != nil")
	}
	Put(nil) // must not panic
	big := Get(1<<24 + 1)
	if len(big) != 1<<24+1 {
		t.Fatalf("oversize Get: len = %d", len(big))
	}
	Put(big) // dropped, must not panic or corrupt
}

func TestPutForeignCapacityDropped(t *testing.T) {
	defer Drain()
	Drain()
	// A buffer whose capacity is not an exact class size must be dropped,
	// not pooled at the wrong class.
	odd := make([]byte, 100) // cap 100, not a class size
	Put(odd)
	b := Get(100)
	if cap(b) == 100 {
		t.Error("foreign-capacity buffer was pooled")
	}
	Put(b)
	// A resliced head keeps a class-size capacity only if it starts at
	// offset 0; offset slices lose it and must be dropped.
	c := Get(128)
	Put(c[2:])
	d := Get(120)
	if len(d) != 120 {
		t.Fatalf("Get after offset Put: len = %d", len(d))
	}
	Put(d)
}

func TestRetentionCap(t *testing.T) {
	defer Drain()
	Drain()
	ci := classIndex(1 << 20)
	max := classes[ci].max
	bufs := make([][]byte, max+10)
	for i := range bufs {
		bufs[i] = Get(1 << 20)
	}
	for _, b := range bufs {
		Put(b)
	}
	classes[ci].mu.Lock()
	got := len(classes[ci].free)
	classes[ci].mu.Unlock()
	if got > max {
		t.Errorf("class retained %d buffers, cap %d", got, max)
	}
}

func TestAllocsSteadyState(t *testing.T) {
	if Poisoning {
		t.Skip("allocs accounting unreliable under -race")
	}
	defer Drain()
	allocs := testing.AllocsPerRun(200, func() {
		b := Get(4096)
		Put(b)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Put allocs = %g, want 0", allocs)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	defer Drain()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				b := Get(64 << (g % 6))
				b[0] = byte(g)
				Put(b)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestLargeClassSteadyState: p ranks that each cycle one buffer of a large
// class — the scratch of a large-message collective on an in-process world
// — are served from the free list once it is warm: the step-after-step
// re-make (and re-zero) of multi-MiB buffers is gone. With the old
// two-buffer floor this counted p-2 fresh allocations per round.
func TestLargeClassSteadyState(t *testing.T) {
	defer Drain()
	Drain()
	const p, n = 8, 8 << 20
	round := func() {
		bufs := make([][]byte, p)
		var wg sync.WaitGroup
		for r := range bufs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				bufs[r] = Get(n)
			}(r)
		}
		wg.Wait() // all p are held at once, as during a collective
		for _, b := range bufs {
			Put(b)
		}
	}
	round()
	before := Stats().Fresh
	round()
	round()
	if got := Stats().Fresh - before; got != 0 {
		t.Errorf("%d ranks cycling %d MiB buffers: %d fresh allocations after warm-up, want 0", p, n>>20, got)
	}
}
