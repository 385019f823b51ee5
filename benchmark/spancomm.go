package main

import (
	"time"

	"exacoll/internal/comm"
)

// spanComm is the benchmark's own comm.Comm wrapper. It sits directly on a
// transport, under whatever stack is being measured, and splits the time
// the layers above spend into posting (Send, Isend, Irecv), waiting (Recv,
// Request.Wait) and — by subtraction from the enclosing span — their own
// work. It counts every message and byte sent whether or not the current
// step's spans are kept.
//
// It forwards all eight optional capabilities of package comm (Clock,
// ClockProber, Deadliner, FailureDetector, Locator, Purger, SendRecver,
// and Tester on its requests) plus Unwrap, so the stack above selects the
// same algorithms and sends the same messages with or without it.
type spanComm struct {
	inner comm.Comm
	tr    *rankTracer

	msgs, bytes    int64
	maxMsg         int64
	postNs, waitNs int64
	errs           int64
}

func newSpanComm(inner comm.Comm, tr *rankTracer) *spanComm {
	return &spanComm{inner: inner, tr: tr}
}

// commCounters is a copy of a spanComm's counters.
type commCounters struct{ msgs, bytes, maxMsg, postNs, waitNs, errs int64 }

func (s *spanComm) counters() commCounters {
	return commCounters{s.msgs, s.bytes, s.maxMsg, s.postNs, s.waitNs, s.errs}
}

func (s *spanComm) sent(n int) {
	s.msgs++
	s.bytes += int64(n)
	if int64(n) > s.maxMsg {
		s.maxMsg = int64(n)
	}
}

func (s *spanComm) post(t0 int64, err error) {
	t1 := s.tr.now()
	s.postNs += t1 - t0
	s.tr.leaf(spanTransportPost, t0, t1)
	if err != nil {
		s.errs++
	}
}

func (s *spanComm) wait(t0 int64, err error) {
	t1 := s.tr.now()
	s.waitNs += t1 - t0
	s.tr.leaf(spanTransportWait, t0, t1)
	if err != nil {
		s.errs++
	}
}

func (s *spanComm) Unwrap() comm.Comm   { return s.inner }
func (s *spanComm) Rank() int           { return s.inner.Rank() }
func (s *spanComm) Size() int           { return s.inner.Size() }
func (s *spanComm) ChargeCompute(n int) { s.inner.ChargeCompute(n) }

func (s *spanComm) Send(to int, tag comm.Tag, buf []byte) error {
	t0 := s.tr.now()
	err := s.inner.Send(to, tag, buf)
	s.sent(len(buf))
	s.post(t0, err)
	return err
}

func (s *spanComm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	t0 := s.tr.now()
	n, err := s.inner.Recv(from, tag, buf)
	s.wait(t0, err)
	return n, err
}

func (s *spanComm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	t0 := s.tr.now()
	req, err := s.inner.Isend(to, tag, buf)
	s.sent(len(buf))
	s.post(t0, err)
	return req, err
}

func (s *spanComm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	t0 := s.tr.now()
	req, err := s.inner.Irecv(from, tag, buf)
	s.post(t0, err)
	if err != nil {
		return nil, err
	}
	return &spanRequest{Request: req, sc: s}, nil
}

// SendRecv implements comm.SendRecver. No transport in the repository has
// a native exchange today; when the inner communicator lacks one this is
// the same Isend, Recv, Wait sequence comm.SendRecv would issue, so the
// message pattern is unchanged.
func (s *spanComm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	if sr, ok := s.inner.(comm.SendRecver); ok {
		t0 := s.tr.now()
		n, err := sr.SendRecv(to, sendBuf, from, recvBuf, tag)
		s.sent(len(sendBuf))
		s.wait(t0, err)
		return n, err
	}
	sreq, err := s.Isend(to, tag, sendBuf)
	if err != nil {
		return 0, err
	}
	n, rerr := s.Recv(from, tag, recvBuf)
	serr := sreq.Wait()
	if rerr != nil {
		return n, rerr
	}
	return n, serr
}

// Now implements comm.Clock; HasClock tells comm.VirtualClock whether a
// virtual clock really backs it.
func (s *spanComm) Now() float64 {
	if cl, ok := s.inner.(comm.Clock); ok {
		return cl.Now()
	}
	return 0
}

func (s *spanComm) HasClock() bool {
	_, ok := comm.VirtualClock(s.inner)
	return ok
}

func (s *spanComm) SetOpTimeout(d time.Duration) {
	if dl, ok := s.inner.(comm.Deadliner); ok {
		dl.SetOpTimeout(d)
	}
}

func (s *spanComm) Failed() []int {
	if fd, ok := s.inner.(comm.FailureDetector); ok {
		return fd.Failed()
	}
	return nil
}

func (s *spanComm) Locality(rank int) (comm.Locality, bool) {
	return comm.LocalityOf(s.inner, rank)
}

func (s *spanComm) PurgeTags(lo, hi comm.Tag) {
	if p, ok := s.inner.(comm.Purger); ok {
		p.PurgeTags(lo, hi)
	}
}

// spanRequest times the blocking Wait of a posted receive.
type spanRequest struct {
	comm.Request
	sc *spanComm
}

func (r *spanRequest) Wait() error {
	t0 := r.sc.tr.now()
	err := r.Request.Wait()
	r.sc.wait(t0, err)
	return err
}

// Test implements comm.Tester. Like the repository's own request wrappers
// it reports not-done when the inner request cannot be polled, which sends
// the caller to Wait.
func (r *spanRequest) Test() (bool, error) {
	done, err, ok := comm.TryTest(r.Request)
	if !ok || !done {
		return false, nil
	}
	return true, err
}
