package shm

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"exacoll/internal/comm"
)

// TestBasicSendRecv: small inline, big streamed, zero-length, and FIFO
// per (source, tag) over real shared-memory rings.
func TestBasicSendRecv(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)

	big := make([]byte, 300<<10) // past InlineMax, past BigBytes/4: streams
	for i := range big {
		big[i] = byte(i * 13)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c1.Send(0, 5, []byte("hello")); err != nil {
			t.Errorf("send small: %v", err)
		}
		if err := c1.Send(0, 5, big); err != nil {
			t.Errorf("send big: %v", err)
		}
		if err := c1.Send(0, 5, nil); err != nil {
			t.Errorf("send zero: %v", err)
		}
		if err := c1.Send(0, 5, []byte("bye")); err != nil {
			t.Errorf("send tail: %v", err)
		}
	}()
	buf := make([]byte, len(big))
	n, err := c0.Recv(1, 5, buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("first recv: n=%d err=%v", n, err)
	}
	n, err = c0.Recv(1, 5, buf)
	if err != nil || n != len(big) || !bytes.Equal(buf[:n], big) {
		t.Fatalf("big recv: n=%d err=%v", n, err)
	}
	n, err = c0.Recv(1, 5, buf)
	if err != nil || n != 0 {
		t.Fatalf("zero recv: n=%d err=%v", n, err)
	}
	n, err = c0.Recv(1, 5, buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("tail recv: n=%d err=%v", n, err)
	}
	wg.Wait()
}

// TestPayloadLargerThanBigRing: a payload bigger than the big ring
// streams through it (producer and consumer overlap).
func TestPayloadLargerThanBigRing(t *testing.T) {
	w := NewWorldOpts(2, Options{RingBytes: 4 << 10, BigBytes: 16 << 10})
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)

	msg := make([]byte, 1<<20) // 64x the big ring
	for i := range msg {
		msg[i] = byte(i ^ (i >> 9))
	}
	errc := make(chan error, 1)
	go func() { errc <- c1.Send(0, 9, msg) }()
	buf := make([]byte, len(msg))
	n, err := c0.Recv(1, 9, buf)
	if err != nil || n != len(msg) {
		t.Fatalf("recv: n=%d err=%v", n, err)
	}
	if serr := <-errc; serr != nil {
		t.Fatalf("send: %v", serr)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("streamed payload corrupt")
	}
}

// TestManyMessages: a storm of interleaved small and large messages on
// multiple tags between 3 ranks.
func TestManyMessages(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	const rounds = 50
	payload := func(src, i int) []byte {
		n := 48
		if i%6 == 0 {
			n = 100 << 10 // big-ring path
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(src*29 + i*11 + j)
		}
		return b
	}
	errs := w.RunAll(func(c comm.Comm) error {
		r := c.Rank()
		var inner sync.WaitGroup
		var firstErr error
		var mu sync.Mutex
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		for peer := 0; peer < 3; peer++ {
			if peer == r {
				continue
			}
			inner.Add(2)
			go func(peer int) {
				defer inner.Done()
				for i := 0; i < rounds; i++ {
					if err := c.Send(peer, comm.Tag(r), payload(r, i)); err != nil {
						fail(err)
						return
					}
				}
			}(peer)
			go func(peer int) {
				defer inner.Done()
				buf := make([]byte, 100<<10)
				for i := 0; i < rounds; i++ {
					n, err := c.Recv(peer, comm.Tag(peer), buf)
					if err != nil {
						fail(err)
						return
					}
					if want := payload(peer, i); !bytes.Equal(buf[:n], want) {
						fail(errors.New("corrupt payload"))
						return
					}
				}
			}(peer)
		}
		inner.Wait()
		return firstErr
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestKillSymmetric: killing a rank mid-life surfaces ErrPeerDead on
// survivors — pending receives release, new operations fail, the
// detector reports it — while messages already published stay
// deliverable.
func TestKillSymmetric(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	c2 := w.Comm(2)

	// A message published before the kill is "on the wire".
	if err := c1.Send(0, 7, []byte{42}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c0.Recv(1, 3, make([]byte, 4)) // never sent: must release on kill
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.Kill(1)

	select {
	case err := <-done:
		if !errors.Is(err, comm.ErrPeerDead) {
			t.Fatalf("pending recv: want ErrPeerDead, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending recv not released by kill")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := c0.(*Proc).Failed(); len(f) == 1 && f[0] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Failed() = %v, want [1]", c0.(*Proc).Failed())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The pre-kill message was drained before the fence: still matchable.
	buf := make([]byte, 4)
	if n, err := c0.Recv(1, 7, buf); err != nil || n != 1 || buf[0] != 42 {
		t.Fatalf("on-the-wire recv: n=%d err=%v", n, err)
	}
	if _, err := c0.Recv(1, 8, buf); !errors.Is(err, comm.ErrPeerDead) {
		t.Fatalf("new recv from dead rank: want ErrPeerDead, got %v", err)
	}
	if err := c0.Send(1, 8, []byte{1}); !errors.Is(err, comm.ErrPeerDead) {
		t.Fatalf("send to dead rank: want ErrPeerDead, got %v", err)
	}
	// Survivors still talk.
	if err := c2.Send(0, 9, []byte{9}); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	if n, err := c0.Recv(2, 9, buf); err != nil || n != 1 || buf[0] != 9 {
		t.Fatalf("survivor recv: n=%d err=%v", n, err)
	}
}

// TestFailedIsAscending: comm.FailureDetector promises ascending order.
// With two dead peers every survivor must report [1 4] on every call —
// map-iteration order would get it wrong about every other call.
func TestFailedIsAscending(t *testing.T) {
	w := NewWorld(6)
	defer w.Close()
	comms := make([]comm.Comm, 6)
	for r := range comms {
		comms[r] = w.Comm(r)
	}
	w.Kill(4)
	w.Kill(1)
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range []int{0, 2, 3, 5} {
		fd := comms[r].(comm.FailureDetector)
		for len(fd.Failed()) < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d: Failed() = %v, want both kills detected", r, fd.Failed())
			}
			time.Sleep(5 * time.Millisecond)
		}
		for i := 0; i < 64; i++ {
			if f := fd.Failed(); len(f) != 2 || f[0] != 1 || f[1] != 4 {
				t.Fatalf("rank %d: Failed() = %v, want [1 4]", r, f)
			}
		}
	}
}

// TestHeartbeatDetectsWedgedRank: a rank that stops publishing
// heartbeats (but never transitions its state) is declared dead by the
// staleness CAS, and all survivors agree.
func TestHeartbeatDetectsWedgedRank(t *testing.T) {
	w := NewWorldOpts(2, Options{
		RingBytes: 16 << 10, BigBytes: 64 << 10,
		Heartbeat: 10 * time.Millisecond, SuspectAfter: 80 * time.Millisecond,
	})
	defer w.Close()
	c0 := w.Comm(0).(*Proc)
	c1 := w.Comm(1).(*Proc)
	c1.mute.Store(true) // stop publishing: rank 1 looks wedged
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := c0.Failed(); len(f) == 1 && f[0] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged rank never suspected; Failed() = %v", c0.Failed())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c0.Recv(1, 3, make([]byte, 4)); !errors.Is(err, comm.ErrPeerDead) {
		t.Fatalf("recv from wedged rank: want ErrPeerDead, got %v", err)
	}
}

// TestOpTimeout: Deadliner semantics — a receive with no sender times
// out, and its buffer is never written by a late message.
func TestOpTimeout(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := w.Comm(0).(*Proc)
	c1 := w.Comm(1)

	c0.SetOpTimeout(50 * time.Millisecond)
	if _, err := c0.Recv(1, 7, make([]byte, 8)); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// A late message must match a fresh receive, not the cancelled one.
	if err := c1.Send(0, 7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c0.SetOpTimeout(5 * time.Second)
	buf := make([]byte, 8)
	n, err := c0.Recv(1, 7, buf)
	if err != nil || n != 3 || buf[0] != 1 {
		t.Fatalf("fresh recv: n=%d err=%v buf=%v", n, err, buf)
	}
}

// TestPurgeTags: buffered messages in the window vanish, posted receives
// cancel with ErrTimeout, traffic outside survives.
func TestPurgeTags(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := w.Comm(0).(*Proc)
	c1 := w.Comm(1)

	if err := c1.Send(0, 100, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(0, 200, []byte{2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c0.engine.UnexpectedCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("frames never arrived")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, err := c0.Irecv(1, 150, make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	c0.PurgeTags(100, 151)
	if err := req.Wait(); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("purged posted recv: want ErrTimeout, got %v", err)
	}
	buf := make([]byte, 1)
	if n, err := c0.Recv(1, 200, buf); err != nil || n != 1 || buf[0] != 2 {
		t.Fatalf("tag outside window: n=%d err=%v", n, err)
	}
	c0.SetOpTimeout(30 * time.Millisecond)
	if _, err := c0.Recv(1, 100, buf); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("purged tag still matched: err=%v", err)
	}
}

// TestLocality: native single-node view, then the synthetic override.
func TestLocality(t *testing.T) {
	w := NewWorld(4)
	defer w.Close()
	c0 := w.Comm(0).(*Proc)
	loc, ok := c0.Locality(3)
	if !ok || loc.Node != 0 || loc.LocalRank != 3 || loc.PPN != 4 {
		t.Fatalf("native Locality(3) = %+v, %v", loc, ok)
	}
	w.SetLocality(2, 4)
	loc, ok = c0.Locality(3)
	if !ok || loc.Node != 1 || loc.LocalRank != 1 || loc.PPN != 2 || loc.Ports != 4 {
		t.Fatalf("synthetic Locality(3) = %+v, %v", loc, ok)
	}
}

// TestCloseIsDeparted: a clean Close drains like a departure — peers get
// everything published first, then ErrPeerDead; the closer's own handle
// reports ErrClosed.
func TestCloseIsDeparted(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0).(*Proc), w.Comm(1).(*Proc)

	if err := c1.Send(0, 4, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	buf := make([]byte, 16)
	n, err := c0.Recv(1, 4, buf)
	if err != nil || string(buf[:n]) != "last words" {
		t.Fatalf("drain after close: n=%d err=%v", n, err)
	}
	if _, err := c0.Recv(1, 4, buf); !errors.Is(err, comm.ErrPeerDead) {
		t.Fatalf("post-close recv: want ErrPeerDead, got %v", err)
	}
	if _, err := c1.Recv(0, 4, buf); !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("closed handle recv: want ErrClosed, got %v", err)
	}
}

// TestCrossProcessAttach exercises the Create/Attach file path inside
// one process: two Procs with separate mappings of the same region file.
func TestCrossProcessAttach(t *testing.T) {
	path := DefaultPath("gcashm-test-attach")
	os.Remove(path)
	t.Cleanup(func() { os.Remove(path) })
	if err := Create(path, 2, Options{RingBytes: 16 << 10, BigBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	procs := make([]*Proc, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			procs[r], errs[r] = Attach(path, r, 2, Options{Timeout: 10 * time.Second})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d attach: %v", r, err)
		}
	}
	defer procs[0].Close()
	defer procs[1].Close()

	msg := make([]byte, 50<<10)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	errc := make(chan error, 1)
	go func() { errc <- procs[1].Send(0, 11, msg) }()
	buf := make([]byte, len(msg))
	n, err := procs[0].Recv(1, 11, buf)
	if err != nil || n != len(msg) || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("attach-path recv: n=%d err=%v", n, err)
	}
	if serr := <-errc; serr != nil {
		t.Fatal(serr)
	}
}
