package faulty_test

import (
	"errors"
	"testing"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/transport/faulty"
	"exacoll/internal/transport/mem"
)

// TestProbCertainties: probability 1 fails every operation, probability 0
// none, and every injected error wraps ErrInjected.
func TestProbCertainties(t *testing.T) {
	w := mem.NewWorld(2)
	defer w.Close()

	always := faulty.New(w.Comm(0), faulty.Options{Seed: 1, SendProb: 1})
	for i := 0; i < 5; i++ {
		if err := always.Send(1, comm.TagUser, []byte{1}); !errors.Is(err, faulty.ErrInjected) {
			t.Fatalf("SendProb=1 op %d: %v, want ErrInjected", i, err)
		}
	}
	never := faulty.New(w.Comm(0), faulty.Options{Seed: 1, SendProb: 0, RecvProb: 0})
	if err := never.Send(1, comm.TagUser, []byte{1}); err != nil {
		t.Fatalf("prob 0 send: %v", err)
	}

	// RecvProb=1 fails blocking receives after the message arrives, and
	// Irecv requests through Wait.
	if err := w.Comm(0).Send(1, comm.TagUser, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Comm(0).Send(1, comm.TagUser+1, []byte{8}); err != nil {
		t.Fatal(err)
	}
	rc := faulty.New(w.Comm(1), faulty.Options{Seed: 1, RecvProb: 1})
	if _, err := rc.Recv(0, comm.TagUser, make([]byte, 1)); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("RecvProb=1 blocking: %v, want ErrInjected", err)
	}
	req, err := rc.Irecv(0, comm.TagUser+1, make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("RecvProb=1 Wait: %v, want ErrInjected", err)
	}
	if err := req.Wait(); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("repeated Wait not memoized: %v", err)
	}
}

// TestProbDeterministicReplay: the same seed on the same rank draws the
// same fault pattern; a different seed draws a different one.
func TestProbDeterministicReplay(t *testing.T) {
	pattern := func(seed int64) []bool {
		w := mem.NewWorld(2)
		defer w.Close()
		c := faulty.New(w.Comm(0), faulty.Options{Seed: seed, SendProb: 0.5})
		var outcomes []bool
		for i := 0; i < 64; i++ {
			err := c.Send(1, comm.TagUser, []byte{1})
			if err != nil && !errors.Is(err, faulty.ErrInjected) {
				t.Fatalf("unexpected error class: %v", err)
			}
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-op fault pattern")
	}
}

// TestPerRankStreams: two ranks with the same seed draw distinct streams
// (faults must not strike every rank in lockstep).
func TestPerRankStreams(t *testing.T) {
	w := mem.NewWorld(2)
	defer w.Close()
	c0 := faulty.New(w.Comm(0), faulty.Options{Seed: 7, SendProb: 0.5})
	c1 := faulty.New(w.Comm(1), faulty.Options{Seed: 7, SendProb: 0.5})
	same := true
	for i := 0; i < 64; i++ {
		e0 := c0.Send(1, comm.TagUser, []byte{1})
		e1 := c1.Send(0, comm.TagUser, []byte{1})
		if (e0 == nil) != (e1 == nil) {
			same = false
		}
	}
	if same {
		t.Fatal("ranks 0 and 1 drew identical fault patterns from one seed")
	}
}

// TestJitter: jitter stretches operations but never injects errors on its
// own.
func TestJitter(t *testing.T) {
	w := mem.NewWorld(2)
	defer w.Close()
	c := faulty.New(w.Comm(0), faulty.Options{Seed: 3, Jitter: 2 * time.Millisecond})
	for i := 0; i < 20; i++ {
		if err := c.Send(1, comm.TagUser, []byte{1}); err != nil {
			t.Fatalf("jitter-only send %d: %v", i, err)
		}
	}
}
