package transporttest

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/machine"
	"exacoll/internal/simnet"
	"exacoll/internal/transport/mem"
)

// wrapperTag is the (application-range) tag the wrapper checks talk on;
// +1 and +2 are the deadline and purge probes.
const wrapperTag = comm.TagUser + 77

// CheckWrapper asserts that a comm.Comm wrapper keeps every optional
// capability of package comm exactly as effective as the substrate
// beneath it makes it — the contract comm.Forward gives by construction,
// checked behaviourally so a hand-written wrapper is held to it too.
// wrap is applied to each rank's handle of two worlds:
//
//   - a mem world (Deadliner, FailureDetector, Purger, Locator; no clock):
//     SetOpTimeout must actually bound a Recv, PurgeTags must actually
//     drop a parked message, Failed must name a killed rank, Locality must
//     answer as the substrate does, VirtualClock must report none;
//   - a simnet world (Clock, Locator; no deadline): VirtualClock must
//     report the substrate's time and ChargeCompute must advance it.
//
// Over both, comm.Walk must reach the substrate, comm.SendRecv must
// exchange through the wrapper — reaching the transport's own SendRecv, so
// the receive is posted before the send and the partner's message is
// filled in place — and receive requests must stay pollable (comm.Tester).
// Traffic uses application tags; wrap must be the identity on ranks (wrap
// a SubComm over all ranks).
func CheckWrapper(t *testing.T, wrap func(comm.Comm) comm.Comm) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { checkWrapperMem(t, wrap) })
	t.Run("simnet", func(t *testing.T) { checkWrapperSim(t, wrap) })
}

// checkCommon covers what holds over every substrate: identity, the
// wrapper chain, and locality answers equal to the substrate's.
func checkCommon(t *testing.T, c, base comm.Comm) {
	t.Helper()
	if c.Rank() != base.Rank() || c.Size() != base.Size() {
		t.Errorf("wrapper is rank %d of %d over rank %d of %d", c.Rank(), c.Size(), base.Rank(), base.Size())
	}
	var last comm.Comm
	comm.Walk(c, func(x comm.Comm) bool { last = x; return true })
	if last != base {
		t.Errorf("comm.Walk ends at %T, not at the substrate %T", last, base)
	}
	for r := 0; r < base.Size(); r++ {
		got, gok := comm.LocalityOf(c, r)
		want, wok := comm.LocalityOf(base, r)
		if got != want || gok != wok || !wok {
			t.Errorf("Locality(%d) = %+v,%v through the wrapper, %+v,%v beneath", r, got, gok, want, wok)
		}
	}
}

func checkWrapperMem(t *testing.T, wrap func(comm.Comm) comm.Comm) {
	w := mem.NewWorld(2)
	defer w.Close()
	w.SetLocality(2, 3)
	base := w.Comm(0)
	c0, c1 := wrap(base), wrap(w.Comm(1))

	checkCommon(t, c0, base)
	if _, ok := comm.VirtualClock(c0); ok {
		t.Error("wrapper over mem claims a virtual clock")
	}

	// SendRecver: a two-way exchange through the wrappers.
	pong := make(chan error, 1)
	go func() {
		got := make([]byte, 4)
		_, err := comm.SendRecv(c1, 0, []byte("pong"), 0, got, wrapperTag)
		if err == nil && string(got) != "ping" {
			err = errors.New("rank 1 received " + string(got))
		}
		pong <- err
	}()
	got := make([]byte, 4)
	if n, err := comm.SendRecv(c0, 1, []byte("ping"), 1, got, wrapperTag); err != nil || n != 4 || string(got) != "pong" {
		t.Fatalf("SendRecv through the wrapper = %d, %v, %q", n, err, got)
	}
	if err := <-pong; err != nil {
		t.Fatalf("SendRecv peer: %v", err)
	}

	// ... and it is the transport's exchange that ran, not the generic
	// Isend-then-Recv: a probe between wrapper and transport counts the
	// calls, and a peer that replies only once it holds the exchange's
	// message finds the receive already posted, so the reply is filled in
	// place.
	probe := &exchangeProbe{Comm: base, native: base.(comm.SendRecver)}
	pc0 := wrap(probe)
	inPlaceBefore, _ := base.(deliveryCounter).DeliveryStats()
	go func() {
		_, err := c1.Recv(0, wrapperTag, make([]byte, 4))
		if err == nil {
			err = c1.Send(0, wrapperTag, []byte("pong"))
		}
		pong <- err
	}()
	if _, err := comm.SendRecv(pc0, 1, []byte("ping"), 1, got, wrapperTag); err != nil {
		t.Fatalf("SendRecv through the wrapper: %v", err)
	}
	if err := <-pong; err != nil {
		t.Fatalf("SendRecv peer: %v", err)
	}
	if probe.exchanges != 1 {
		t.Errorf("an exchange through the wrapper reached the transport's SendRecv %d times, want 1", probe.exchanges)
	}
	if inPlace, _ := base.(deliveryCounter).DeliveryStats(); inPlace.Msgs != inPlaceBefore.Msgs+1 {
		t.Errorf("the exchange's reply was not filled in place (%d in-place deliveries, had %d)", inPlace.Msgs, inPlaceBefore.Msgs)
	}

	// Tester: the wrapper's receive requests stay pollable.
	req, err := c0.Irecv(1, wrapperTag, got)
	if err != nil {
		t.Fatal(err)
	}
	if done, _, ok := comm.TryTest(req); !ok || done {
		t.Fatalf("TryTest before the message = done %v, supported %v", done, ok)
	}
	if err := c1.Send(0, wrapperTag, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if done, terr, ok := comm.TryTest(req); !ok || !done || terr != nil || req.Len() != 4 {
		t.Fatalf("TryTest after Wait = done %v, %v, supported %v, len %d", done, terr, ok, req.Len())
	}

	// Deadliner: the timeout must bound a Recv nobody answers. A wrapper
	// that loses it would block forever, so the probe itself is bounded.
	dl, ok := c0.(comm.Deadliner)
	if !ok {
		t.Fatal("wrapper drops comm.Deadliner")
	}
	recvTimesOut := func(tag comm.Tag, what string) {
		t.Helper()
		errc := make(chan error, 1)
		go func() {
			_, err := c0.Recv(1, tag, make([]byte, 4))
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, comm.ErrTimeout) {
				t.Fatalf("%s: Recv = %v, want ErrTimeout", what, err)
			}
		case <-time.After(10 * time.Second):
			w.Close()
			t.Fatalf("%s: Recv still blocked after 10 s", what)
		}
	}
	dl.SetOpTimeout(20 * time.Millisecond)
	recvTimesOut(wrapperTag+1, "SetOpTimeout through the wrapper")

	// Purger: a message parked on rank 0 must be gone after the purge.
	pg, ok := c0.(comm.Purger)
	if !ok {
		t.Fatal("wrapper drops comm.Purger")
	}
	if err := c1.Send(0, wrapperTag+2, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	pg.PurgeTags(wrapperTag+2, wrapperTag+3)
	recvTimesOut(wrapperTag+2, "PurgeTags through the wrapper")
	dl.SetOpTimeout(0)

	// FailureDetector, last: the kill is not undone.
	fd, ok := c0.(comm.FailureDetector)
	if !ok {
		t.Fatal("wrapper drops comm.FailureDetector")
	}
	if f := fd.Failed(); len(f) != 0 {
		t.Errorf("Failed() = %v on a healthy world", f)
	}
	w.Kill(1)
	if f := fd.Failed(); !reflect.DeepEqual(f, []int{1}) {
		t.Errorf("Failed() = %v after killing rank 1, want [1]", f)
	}
}

// exchangeProbe stands between a wrapper and the transport and counts the
// exchanges that arrive as one SendRecv call.
type exchangeProbe struct {
	comm.Comm
	native    comm.SendRecver
	exchanges int
}

func (p *exchangeProbe) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	p.exchanges++
	return p.native.SendRecv(to, sendBuf, from, recvBuf, tag)
}

func checkWrapperSim(t *testing.T, wrap func(comm.Comm) comm.Comm) {
	sim, err := simnet.New(machine.Testbox(), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Run(func(base comm.Comm) error {
		c := wrap(base)
		checkCommon(t, c, base)
		clk, ok := comm.VirtualClock(c)
		if !ok {
			t.Error("wrapper over simnet hides the virtual clock")
			return nil
		}
		inner, _ := comm.VirtualClock(base)
		t0 := clk.Now()
		if t0 != inner.Now() {
			t.Errorf("Now() = %g through the wrapper, %g beneath", t0, inner.Now())
		}
		c.ChargeCompute(1 << 20)
		if clk.Now() <= t0 || clk.Now() != inner.Now() {
			t.Errorf("ChargeCompute through the wrapper moved the clock %g -> %g (%g beneath)", t0, clk.Now(), inner.Now())
		}
		// The substrate has no detector and no deadlines: both must
		// degrade to their neutral answers, not fail.
		if fd, ok := c.(comm.FailureDetector); ok && len(fd.Failed()) != 0 {
			t.Errorf("Failed() = %v over a substrate without a detector", fd.Failed())
		}
		if dl, ok := c.(comm.Deadliner); ok {
			dl.SetOpTimeout(time.Second)
		}
		msg := make([]byte, 8)
		if c.Rank() == 0 {
			return c.Send(1, wrapperTag, msg)
		}
		_, err := c.Recv(0, wrapperTag, msg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
