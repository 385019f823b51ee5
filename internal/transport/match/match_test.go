package match_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"exacoll/internal/buf"
	"exacoll/internal/comm"
	"exacoll/internal/transport/match"
	"exacoll/internal/transport/mem"
)

// subject is the receiving side of one matcher under test: rank 0 of a
// two-rank world whose only source is rank 1. The semantic table below
// runs against a bare Engine and against a mem.World, so "mem is nothing
// but engines" is an executable claim.
type subject interface {
	send(tag comm.Tag, payload []byte) error // rank 1 -> rank 0
	irecv(tag comm.Tag, b []byte, timeout time.Duration) (comm.Request, error)
	recv(tag comm.Tag, b []byte, timeout time.Duration) (int, error)
	// exchange is rank 0's SendRecv with rank 1. A non-nil sendErr makes
	// its send half fail (the bare engine with exactly that error).
	exchange(tag comm.Tag, out, in []byte, timeout time.Duration, sendErr error) (int, error)
	// answer is rank 1's side of one exchange, done by hand: receive rank
	// 0's message, only then send the reply.
	answer(tag comm.Tag, reply []byte) error
	inPlace() uint64 // messages filled in place at rank 0 so far
	failPeer()       // rank 1 dies
	purge(lo, hi comm.Tag)
	fail() // rank 0 itself closes
}

// engineSubject is rank 0's engine, plus rank 1's for the two-sided
// exchange rows.
type engineSubject struct{ e, peer *match.Engine }

// deliver is what every transport's Send does: DeliverTo with a fill that
// produces the payload.
func deliver(e *match.Engine, src int, tag comm.Tag, payload []byte) error {
	return e.DeliverTo(src, tag, len(payload), func(dst []byte) error {
		copy(dst, payload)
		return nil
	})
}

func (s engineSubject) send(tag comm.Tag, payload []byte) error {
	return deliver(s.e, 1, tag, payload)
}

func (s engineSubject) exchange(tag comm.Tag, out, in []byte, timeout time.Duration, sendErr error) (int, error) {
	return s.e.Exchange(1, tag, in, timeout, func() error {
		if sendErr != nil {
			return sendErr
		}
		return deliver(s.peer, 0, tag, out)
	})
}

func (s engineSubject) answer(tag comm.Tag, reply []byte) error {
	if _, err := s.peer.Recv(0, tag, make([]byte, 16), 0); err != nil {
		return err
	}
	return s.send(tag, reply)
}

func (s engineSubject) inPlace() uint64 {
	ip, _ := s.e.DeliveryStats()
	return ip.Msgs
}

func (s engineSubject) irecv(tag comm.Tag, b []byte, timeout time.Duration) (comm.Request, error) {
	pr, err := s.e.Post(1, tag, b)
	if err != nil {
		return nil, err
	}
	return s.e.Request(pr, 1, tag, timeout), nil
}

func (s engineSubject) recv(tag comm.Tag, b []byte, timeout time.Duration) (int, error) {
	return s.e.Recv(1, tag, b, timeout)
}

func (s engineSubject) failPeer() {
	s.e.FailPeer(1, fmt.Errorf("%w: rank 1 gone", comm.ErrPeerDead))
}
func (s engineSubject) purge(lo, hi comm.Tag) { s.e.PurgeTags(lo, hi) }
func (s engineSubject) fail()                 { s.e.Fail(comm.ErrClosed) }

type memSubject struct {
	w      *mem.World
	c0, c1 comm.Comm
}

func (s memSubject) send(tag comm.Tag, payload []byte) error { return s.c1.Send(0, tag, payload) }

func (s memSubject) irecv(tag comm.Tag, b []byte, timeout time.Duration) (comm.Request, error) {
	s.c0.(comm.Deadliner).SetOpTimeout(timeout)
	return s.c0.Irecv(1, tag, b)
}

func (s memSubject) recv(tag comm.Tag, b []byte, timeout time.Duration) (int, error) {
	s.c0.(comm.Deadliner).SetOpTimeout(timeout)
	return s.c0.Recv(1, tag, b)
}

// exchange fails its send half by addressing it outside the world.
func (s memSubject) exchange(tag comm.Tag, out, in []byte, timeout time.Duration, sendErr error) (int, error) {
	s.c0.(comm.Deadliner).SetOpTimeout(timeout)
	to := 1
	if sendErr != nil {
		to = 2
	}
	return s.c0.(comm.SendRecver).SendRecv(to, out, 1, in, tag)
}

func (s memSubject) answer(tag comm.Tag, reply []byte) error {
	if _, err := s.c1.Recv(0, tag, make([]byte, 16)); err != nil {
		return err
	}
	return s.c1.Send(0, tag, reply)
}

func (s memSubject) inPlace() uint64 {
	ip, _ := s.c0.(interface {
		DeliveryStats() (inPlace, staged match.Deliveries)
	}).DeliveryStats()
	return ip.Msgs
}

func (s memSubject) failPeer()             { s.w.Kill(1) }
func (s memSubject) purge(lo, hi comm.Tag) { s.c0.(comm.Purger).PurgeTags(lo, hi) }
func (s memSubject) fail()                 { s.w.Close() }

var subjects = []struct {
	name string
	make func() subject
}{
	{"engine", func() subject { return engineSubject{match.New(), match.New()} }},
	{"mem", func() subject {
		w := mem.NewWorld(2)
		return memSubject{w, w.Comm(0), w.Comm(1)}
	}},
}

const short = 20 * time.Millisecond

// mustRecv receives one message on tag and checks its payload.
func mustRecv(t *testing.T, s subject, tag comm.Tag, want string) {
	t.Helper()
	b := make([]byte, 16)
	n, err := s.recv(tag, b, 0)
	if err != nil || string(b[:n]) != want {
		t.Fatalf("recv tag %d = %q, %v; want %q", tag, b[:n], err, want)
	}
}

func mustSend(t *testing.T, s subject, tag comm.Tag, payload string) {
	t.Helper()
	if err := s.send(tag, []byte(payload)); err != nil {
		t.Fatalf("send tag %d: %v", tag, err)
	}
}

// postFails posts a receive that must fail with target, whether the
// failure surfaces at post time or at Wait.
func postFails(t *testing.T, s subject, tag comm.Tag, target error) {
	t.Helper()
	req, err := s.irecv(tag, make([]byte, 4), 0)
	if err == nil {
		err = req.Wait()
	}
	if !errors.Is(err, target) {
		t.Fatalf("receive on tag %d = %v, want %v", tag, err, target)
	}
}

var semanticTable = []struct {
	name string
	run  func(t *testing.T, s subject)
}{
	{"fifo/post-first", func(t *testing.T, s subject) {
		bufs := [3][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
		var reqs [3]comm.Request
		for i := range reqs {
			var err error
			if reqs[i], err = s.irecv(7, bufs[i], 0); err != nil {
				t.Fatal(err)
			}
		}
		if done, _, ok := comm.TryTest(reqs[0]); !ok || done {
			t.Fatalf("Test before any message: done %v, supported %v", done, ok)
		}
		for _, m := range []string{"a", "bb", ""} {
			mustSend(t, s, 7, m)
		}
		for i, want := range []string{"a", "bb", ""} {
			if err := reqs[i].Wait(); err != nil {
				t.Fatal(err)
			}
			if got := string(bufs[i][:reqs[i].Len()]); got != want {
				t.Errorf("receive %d got %q, want %q", i, got, want)
			}
			if done, err, _ := comm.TryTest(reqs[i]); !done || err != nil {
				t.Errorf("Test after Wait: done %v, %v", done, err)
			}
		}
	}},
	{"fifo/deliver-first", func(t *testing.T, s subject) {
		for _, m := range []string{"a", "bb", ""} {
			mustSend(t, s, 7, m)
		}
		mustSend(t, s, 9, "other tag")
		for _, want := range []string{"a", "bb", ""} {
			mustRecv(t, s, 7, want)
		}
		mustRecv(t, s, 9, "other tag")
	}},
	{"exact-tag", func(t *testing.T, s subject) {
		// A receive is never satisfied by a neighbouring tag, in either
		// arrival order.
		mustSend(t, s, 8, "eight")
		req, err := s.irecv(7, make([]byte, 8), 0)
		if err != nil {
			t.Fatal(err)
		}
		if done, _, _ := comm.TryTest(req); done {
			t.Fatal("tag 7 receive matched a tag 8 message")
		}
		mustSend(t, s, 7, "seven")
		if err := req.Wait(); err != nil || req.Len() != 5 {
			t.Fatalf("tag 7 receive: %v, len %d", err, req.Len())
		}
		mustRecv(t, s, 8, "eight")
	}},
	{"truncation/post-first", func(t *testing.T, s subject) {
		small := make([]byte, 2)
		req, err := s.irecv(7, small, 0)
		if err != nil {
			t.Fatal(err)
		}
		mustSend(t, s, 7, "too long")
		if err := req.Wait(); !errors.Is(err, comm.ErrTruncated) {
			t.Fatalf("Wait = %v, want ErrTruncated", err)
		}
		if !bytes.Equal(small, []byte{0, 0}) {
			t.Errorf("truncated receive wrote %v into its buffer", small)
		}
		// The oversized message was consumed, not left to match again.
		mustSend(t, s, 7, "ok")
		mustRecv(t, s, 7, "ok")
	}},
	{"truncation/deliver-first", func(t *testing.T, s subject) {
		mustSend(t, s, 7, "too long")
		mustSend(t, s, 7, "ok")
		if _, err := s.recv(7, make([]byte, 2), 0); !errors.Is(err, comm.ErrTruncated) {
			t.Fatalf("recv = %v, want ErrTruncated", err)
		}
		mustRecv(t, s, 7, "ok")
	}},
	{"peer-death/buffered-still-matches", func(t *testing.T, s subject) {
		mustSend(t, s, 7, "last words")
		s.failPeer()
		mustRecv(t, s, 7, "last words")
		postFails(t, s, 7, comm.ErrPeerDead)
		if _, err := s.recv(7, make([]byte, 4), 0); !errors.Is(err, comm.ErrPeerDead) {
			t.Fatalf("blocking recv after death = %v, want ErrPeerDead", err)
		}
	}},
	{"peer-death/pending-fails", func(t *testing.T, s subject) {
		req, err := s.irecv(7, make([]byte, 4), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.failPeer()
		if err := req.Wait(); !errors.Is(err, comm.ErrPeerDead) {
			t.Fatalf("pending receive at death = %v, want ErrPeerDead", err)
		}
	}},
	{"purge", func(t *testing.T, s subject) {
		mustSend(t, s, 100, "stale")
		mustSend(t, s, 200, "kept")
		inWindow, err := s.irecv(150, make([]byte, 4), 0)
		if err != nil {
			t.Fatal(err)
		}
		outside, err := s.irecv(151, make([]byte, 4), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.purge(100, 151)
		if err := inWindow.Wait(); !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("purged receive = %v, want ErrTimeout", err)
		}
		if _, err := s.recv(100, make([]byte, 8), short); !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("recv of purged message = %v, want ErrTimeout", err)
		}
		mustRecv(t, s, 200, "kept")
		mustSend(t, s, 151, "edge")
		if err := outside.Wait(); err != nil || outside.Len() != 4 {
			t.Fatalf("receive at the window's open end: %v, len %d", err, outside.Len())
		}
	}},
	{"fail", func(t *testing.T, s subject) {
		mustSend(t, s, 9, "parked")
		req, err := s.irecv(7, make([]byte, 4), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.fail()
		if err := req.Wait(); !errors.Is(err, comm.ErrClosed) {
			t.Fatalf("pending receive at close = %v, want ErrClosed", err)
		}
		postFails(t, s, 9, comm.ErrClosed)
		if _, err := s.recv(9, make([]byte, 8), 0); !errors.Is(err, comm.ErrClosed) {
			t.Fatalf("recv after close = %v, want ErrClosed", err)
		}
	}},
	{"deadline/wait", func(t *testing.T, s subject) {
		b := make([]byte, 4)
		req, err := s.irecv(7, b, short)
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Wait(); !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("Wait = %v, want ErrTimeout", err)
		}
		if err := req.Wait(); !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("second Wait = %v, want the same ErrTimeout", err)
		}
		// Deregistered: the late message must not land in the timed-out
		// buffer; a fresh receive gets it.
		mustSend(t, s, 7, "late")
		mustRecv(t, s, 7, "late")
		if !bytes.Equal(b, make([]byte, 4)) {
			t.Errorf("timed-out receive's buffer was written: %q", b)
		}
	}},
	{"deadline/recv", func(t *testing.T, s subject) {
		if _, err := s.recv(7, make([]byte, 4), short); !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("recv = %v, want ErrTimeout", err)
		}
		mustSend(t, s, 7, "late")
		mustRecv(t, s, 7, "late")
	}},
	{"exchange/receive-posted-before-the-send-is-filled-in-place", func(t *testing.T, s subject) {
		// Rank 1 replies only after it has rank 0's message, which the
		// exchange sends only after posting its receive: the reply must be
		// written straight into the buffer, never staged.
		answered := make(chan error, 1)
		go func() { answered <- s.answer(7, []byte("pong")) }()
		in := make([]byte, 8)
		n, err := s.exchange(7, []byte("ping"), in, 0, nil)
		if err != nil || string(in[:n]) != "pong" {
			t.Fatalf("exchange = %q, %v", in[:n], err)
		}
		if err := <-answered; err != nil {
			t.Fatal(err)
		}
		if got := s.inPlace(); got != 1 {
			t.Errorf("%d messages filled in place, want the exchange's 1", got)
		}
	}},
	{"exchange/send-failure-cancels-the-receive", func(t *testing.T, s subject) {
		errSend := errors.New("send failed")
		poison := bytes.Repeat([]byte{0xAA}, 8) // any write shows
		in := bytes.Clone(poison)
		_, err := s.exchange(7, []byte("ping"), in, 0, errSend)
		if _, bare := s.(engineSubject); bare && err != errSend {
			t.Fatalf("exchange = %v, want the send's error verbatim", err)
		}
		if err == nil {
			t.Fatal("exchange with a failing send succeeded")
		}
		// No receive is left behind: the late message is not filled in
		// place but parks, and a fresh receive gets it.
		mustSend(t, s, 7, "late")
		if got := s.inPlace(); got != 0 {
			t.Errorf("%d messages filled in place after the exchange failed", got)
		}
		mustRecv(t, s, 7, "late")
		if !bytes.Equal(in, poison) {
			t.Errorf("failed exchange's buffer was written: %x", in)
		}
	}},
	{"exchange/deadline", func(t *testing.T, s subject) {
		poison := bytes.Repeat([]byte{0xAA}, 8)
		in := bytes.Clone(poison)
		if _, err := s.exchange(7, []byte("ping"), in, short, nil); !errors.Is(err, comm.ErrTimeout) {
			t.Fatalf("exchange nobody answers = %v, want ErrTimeout", err)
		}
		// Deregistered, like a timed-out Recv.
		mustSend(t, s, 7, "late")
		mustRecv(t, s, 7, "late")
		if !bytes.Equal(in, poison) {
			t.Errorf("timed-out exchange's buffer was written: %x", in)
		}
	}},
	{"deadline/met", func(t *testing.T, s subject) {
		req, err := s.irecv(7, make([]byte, 4), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		go s.send(7, []byte("fast"))
		if err := req.Wait(); err != nil || req.Len() != 4 {
			t.Fatalf("Wait under a generous deadline = %v, len %d", err, req.Len())
		}
	}},
}

// TestSemantics runs the one semantic table against the engine itself and
// against a mem world built from engines.
func TestSemantics(t *testing.T) {
	for _, sub := range subjects {
		for _, tc := range semanticTable {
			t.Run(sub.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, sub.make())
			})
		}
	}
}

// TestCancelRacesDeliver: a Cancel concurrent with the matching Deliver
// has exactly one winner, and a cancelled receive's buffer is never
// written — not even by the delivery that lost the race.
func TestCancelRacesDeliver(t *testing.T) {
	e := match.New()
	errCancelled := errors.New("cancelled")
	payload := []byte{0xff, 0xff, 0xff, 0xff}
	wins := map[bool]int{}
	for i := 0; i < 2000; i++ {
		b := make([]byte, 4)
		pr, err := e.Post(1, 7, b)
		if err != nil {
			t.Fatal(err)
		}
		p := buf.Get(len(payload))
		copy(p, payload)
		var wg sync.WaitGroup
		var cancelled bool
		start := make(chan struct{})
		racers := []func(){
			func() { e.Deliver(1, 7, p) },
			func() { cancelled = e.Cancel(pr, errCancelled) },
		}
		for j := range racers {
			racer := racers[(i+j)%2] // alternate who is launched first
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				racer()
			}()
		}
		close(start)
		wg.Wait()
		werr := pr.Wait()
		wins[cancelled]++
		if cancelled {
			if werr != errCancelled {
				t.Fatalf("round %d: Cancel won but Wait = %v", i, werr)
			}
			if !bytes.Equal(b, make([]byte, 4)) {
				t.Fatalf("round %d: cancelled receive's buffer was written: %v", i, b)
			}
			// The message parked instead; drain it for the next round.
			if n, err := e.Recv(1, 7, make([]byte, 4), 0); err != nil || n != 4 {
				t.Fatalf("round %d: parked message: %d, %v", i, n, err)
			}
		} else if werr != nil || !bytes.Equal(b, payload) {
			t.Fatalf("round %d: Deliver won but Wait = %v, buffer %v", i, werr, b)
		}
		if e.UnexpectedCount() != 0 {
			t.Fatalf("round %d: %d messages left parked", i, e.UnexpectedCount())
		}
	}
	t.Logf("cancel won %d rounds, deliver %d", wins[true], wins[false])
}

// TestExchangeCancelRacesFill: an exchange whose send fails while the
// partner's message is arriving ends in exactly one of two states — the
// cancel won (buffer untouched, message parked for the next receive) or
// the fill won (buffer holds the whole message, nothing parked) — and in
// both the buffer is quiescent once Exchange has returned: a fill that was
// in flight is waited for, never abandoned half-written.
func TestExchangeCancelRacesFill(t *testing.T) {
	e := match.New()
	errSend := errors.New("send failed")
	payload := bytes.Repeat([]byte{0xFF}, 64)
	poison := bytes.Repeat([]byte{0xAA}, 64)
	slowFill := func(dst []byte) error {
		copy(dst[:32], payload)
		runtime.Gosched() // hold the fill open across the cancel attempt
		copy(dst[32:], payload[32:])
		return nil
	}
	wins := map[string]int{}
	for i := 0; i < 2000; i++ {
		in := bytes.Clone(poison)
		start := make(chan struct{})
		delivered := make(chan error, 1)
		go func() {
			<-start
			delivered <- e.DeliverTo(1, 7, len(payload), slowFill)
		}()
		_, err := e.Exchange(1, 7, in, 0, func() error {
			close(start)
			if i%2 == 0 {
				runtime.Gosched() // alternate who gets there first
			}
			return errSend
		})
		after := bytes.Clone(in) // the buffer as Exchange left it
		if err != errSend {
			t.Fatalf("round %d: Exchange = %v, want the send's error", i, err)
		}
		if err := <-delivered; err != nil {
			t.Fatal(err)
		}
		switch {
		case bytes.Equal(after, poison) && e.UnexpectedCount() == 1:
			wins["cancel"]++
			if n, err := e.Recv(1, 7, make([]byte, 64), 0); err != nil || n != 64 {
				t.Fatalf("round %d: parked message: %d, %v", i, n, err)
			}
		case bytes.Equal(after, payload) && e.UnexpectedCount() == 0:
			wins["fill"]++
		default:
			t.Fatalf("round %d: buffer %x with %d messages parked: neither outcome", i, after, e.UnexpectedCount())
		}
		if !bytes.Equal(in, after) {
			t.Fatalf("round %d: buffer written after Exchange returned", i)
		}
	}
	t.Logf("cancel won %d rounds, fill %d", wins["cancel"], wins["fill"])
}

// TestDeliverTo: one copy straight into a pre-posted buffer, staging
// otherwise, and fill errors reaching exactly the receive being filled.
func TestDeliverTo(t *testing.T) {
	msg := []byte("payload!")
	var filled []byte // the destination the engine handed to the callback
	fill := func(dst []byte) error {
		filled = dst
		copy(dst, msg)
		return nil
	}
	errFill := errors.New("ring read failed")

	t.Run("pre-posted is filled in place", func(t *testing.T) {
		e := match.New()
		b := make([]byte, 16)
		pr, _ := e.Post(1, 7, b)
		if err := e.DeliverTo(1, 7, len(msg), fill); err != nil {
			t.Fatal(err)
		}
		if &filled[0] != &b[0] || len(filled) != len(msg) {
			t.Error("DeliverTo staged a message whose receive was already posted")
		}
		if err := pr.Wait(); err != nil || pr.Len() != len(msg) || !bytes.Equal(b[:len(msg)], msg) {
			t.Fatalf("Wait = %v, len %d, buf %q", err, pr.Len(), b)
		}
	})
	t.Run("not posted is staged and parked", func(t *testing.T) {
		e := match.New()
		if err := e.DeliverTo(1, 7, len(msg), fill); err != nil {
			t.Fatal(err)
		}
		if e.UnexpectedCount() != 1 {
			t.Fatalf("%d messages parked, want 1", e.UnexpectedCount())
		}
		b := make([]byte, 16)
		if n, err := e.Recv(1, 7, b, 0); err != nil || !bytes.Equal(b[:n], msg) {
			t.Fatalf("Recv = %d, %v, %q", n, err, b)
		}
	})
	t.Run("too-small posted buffer is not filled", func(t *testing.T) {
		e := match.New()
		b := make([]byte, 2)
		pr, _ := e.Post(1, 7, b)
		if err := e.DeliverTo(1, 7, len(msg), fill); err != nil {
			t.Fatal(err)
		}
		if err := pr.Wait(); !errors.Is(err, comm.ErrTruncated) {
			t.Fatalf("Wait = %v, want ErrTruncated", err)
		}
		if !bytes.Equal(b, []byte{0, 0}) {
			t.Errorf("truncated receive's buffer was written: %v", b)
		}
	})
	t.Run("fill error fails the receive being filled", func(t *testing.T) {
		e := match.New()
		pr, _ := e.Post(1, 7, make([]byte, 16))
		other, _ := e.Post(2, 7, make([]byte, 16))
		err := e.DeliverTo(1, 7, len(msg), func([]byte) error { return errFill })
		if err != errFill {
			t.Fatalf("DeliverTo = %v, want the fill error verbatim", err)
		}
		if werr := pr.Wait(); werr != errFill {
			t.Fatalf("Wait = %v, want the fill error", werr)
		}
		if done, _ := other.Test(); done {
			t.Error("a fill error from rank 1 settled a receive posted for rank 2")
		}
	})
	t.Run("fill error while staging parks nothing", func(t *testing.T) {
		e := match.New()
		if err := e.DeliverTo(1, 7, len(msg), func([]byte) error { return errFill }); err != errFill {
			t.Fatalf("DeliverTo = %v, want the fill error verbatim", err)
		}
		if e.UnexpectedCount() != 0 {
			t.Error("a failed fill left a message parked")
		}
	})
	t.Run("dead source is drained and dropped", func(t *testing.T) {
		e := match.New()
		e.FailPeer(1, comm.ErrPeerDead)
		filled = nil
		if err := e.DeliverTo(1, 7, len(msg), fill); err != nil || filled == nil {
			t.Fatalf("DeliverTo from a dead source = %v (payload consumed: %v)", err, filled != nil)
		}
		if e.UnexpectedCount() != 0 {
			t.Error("a dead source's message was parked")
		}
	})
}

// TestPeerFailureBookkeeping: failures are per peer, sticky, and listed in
// ascending order (the order comm.FailureDetector documents).
func TestPeerFailureBookkeeping(t *testing.T) {
	e := match.New()
	healthy, _ := e.Post(2, 7, make([]byte, 4))
	first := fmt.Errorf("%w: first", comm.ErrPeerDead)
	for _, peer := range []int{5, 9, 1, 7, 3} {
		e.FailPeer(peer, first)
	}
	e.FailPeer(5, errors.New("second report"))
	if got := e.FailedPeers(); !reflect.DeepEqual(got, []int{1, 3, 5, 7, 9}) {
		t.Errorf("FailedPeers() = %v, want ascending [1 3 5 7 9]", got)
	}
	if err := e.PeerError(5); err != first {
		t.Errorf("PeerError(5) = %v, want the first recorded failure", err)
	}
	if e.PeerError(9) == nil || e.PeerError(2) != nil {
		t.Error("failure leaked across peers")
	}
	if done, _ := healthy.Test(); done {
		t.Error("a receive from a healthy peer was settled by other peers' deaths")
	}
	if err := e.Deliver(5, 7, buf.Get(4)); !errors.Is(err, comm.ErrPeerDead) {
		t.Errorf("Deliver from a failed peer = %v, want its failure", err)
	}
}

// TestAllocs pins the allocation discipline every transport inherits.
func TestAllocs(t *testing.T) {
	if buf.Poisoning {
		t.Skip("pool poisoning (race build) allocates; counts are pinned in regular builds")
	}
	e := match.New()
	dst := make([]byte, 64)
	// Warm the queues' backing arrays, the free list and the pool class.
	for i := 0; i < 4; i++ {
		e.Deliver(1, 7, buf.Get(64))
		if _, err := e.Recv(1, 7, dst, 0); err != nil {
			t.Fatal(err)
		}
		pr, _ := e.Post(1, 7, dst)
		e.Deliver(1, 7, buf.Get(64))
		pr.Wait()
	}
	expected := testing.AllocsPerRun(200, func() {
		pr, _ := e.Post(1, 7, dst)
		e.Deliver(1, 7, buf.Get(64))
		e.Request(pr, 1, 7, 0).Wait()
	})
	if expected > 1 {
		t.Errorf("Post -> Deliver -> Wait allocates %.0f objects, want <= 1 (the receive)", expected)
	}
	blocking := testing.AllocsPerRun(200, func() {
		e.Deliver(1, 7, buf.Get(64))
		e.Recv(1, 7, dst, 0)
	})
	if blocking != 0 {
		t.Errorf("Deliver -> blocking Recv allocates %.0f objects, want 0", blocking)
	}
	fill := func(b []byte) error { return nil }
	exchange := testing.AllocsPerRun(200, func() {
		// The send half plays the partner too: its message finds the
		// receive posted and is filled in place.
		e.Exchange(1, 7, dst, 0, func() error { return e.DeliverTo(1, 7, 64, fill) })
	})
	if exchange != 0 {
		t.Errorf("Exchange allocates %.0f objects, want 0", exchange)
	}
}
