package flight

import (
	"sync"

	"exacoll/internal/comm"
)

// Recorded is implemented by communicators that carry a flight recorder
// for their rank. Probe with RecorderOf, which also walks wrapper chains.
type Recorded interface {
	FlightRecorder() *RankRecorder
}

// RecorderOf returns the flight recorder reachable from c: c itself if it
// is the flight wrapper, or the first Recorded communicator beneath it in
// the wrapper chain. Nil when no recorder is attached — callers emitting
// optional events must nil-check.
func RecorderOf(c comm.Comm) *RankRecorder {
	var rr *RankRecorder
	comm.Walk(c, func(x comm.Comm) bool {
		if rc, ok := x.(Recorded); ok {
			rr = rc.FlightRecorder()
		}
		return rr == nil
	})
	return rr
}

// Wrap returns a comm.Comm recording every point-to-point operation of
// c's rank into the recorder's ring, stamped with c's virtual clock when
// it has one. Every capability of c passes through (comm.Forward), and
// metrics instrumentation beneath stays discoverable through the wrapper
// chain (metrics.InstrumentedOf); flight itself must stay the outermost
// wrapper so the ring sees every operation.
//
// Overhead discipline: the blocking Send/Recv paths and Isend add only a
// clock read and a ring-slot store per event — no allocations (enforced
// by TestWrapZeroAllocs and the gcabench flight gate). Irecv allocates
// one small request wrapper so the completion event can be recorded,
// matching what the substrate itself allocates per posted receive.
//
// Isend records only the post: wrapping the send request to observe its
// completion would allocate on the comm.SendRecv hot path, and eager
// semantics make a send's local completion uninformative (the transfer
// interval the analysis needs is send post → recv complete).
func (f *Recorder) Wrap(c comm.Comm) comm.Comm {
	rr := f.Rank(c.Rank())
	if clk, ok := comm.VirtualClock(c); ok {
		rr.clk = clk
	}
	return &Comm{Forward: comm.NewForward(c), rec: rr}
}

// Comm is the flight-recording communicator wrapper. Construct with
// Recorder.Wrap. ChargeCompute passes through unrecorded: reduction
// kernels bracket their work with EvReduceBegin/End explicitly
// (internal/core), which carries strictly more information.
type Comm struct {
	comm.Forward
	rec *RankRecorder
}

// FlightRecorder implements Recorded.
func (fc *Comm) FlightRecorder() *RankRecorder { return fc.rec }

// Send implements comm.Comm: EvSendPost at entry, EvSendComplete when the
// eager buffering accepts the payload. Failed sends record no completion.
func (fc *Comm) Send(to int, tag comm.Tag, buf []byte) error {
	fc.rec.Record(EvSendPost, to, tag, len(buf), 0)
	err := fc.Unwrap().Send(to, tag, buf)
	if err == nil {
		fc.rec.Record(EvSendComplete, to, tag, len(buf), 0)
	}
	return err
}

// Recv implements comm.Comm: EvRecvPost at entry, EvRecvComplete with the
// matched length on success. The interval between the two is the rank's
// blocked-or-transfer window for the message.
func (fc *Comm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	fc.rec.Record(EvRecvPost, from, tag, len(buf), 0)
	n, err := fc.Unwrap().Recv(from, tag, buf)
	if err == nil {
		fc.rec.Record(EvRecvComplete, from, tag, n, 0)
	}
	return n, err
}

// Isend implements comm.Comm, recording the post only (see Wrap) and
// returning the substrate's request as-is — zero per-call allocations.
func (fc *Comm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	fc.rec.Record(EvSendPost, to, tag, len(buf), 0)
	req, err := fc.Unwrap().Isend(to, tag, buf)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// Irecv implements comm.Comm: EvRecvPost at the post, EvRecvComplete when
// Wait or Test observes completion, and EvWaitBegin/EvWaitEnd bracketing
// each blocking Wait on the request.
func (fc *Comm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	fc.rec.Record(EvRecvPost, from, tag, len(buf), 0)
	req, err := fc.Unwrap().Irecv(from, tag, buf)
	if err != nil {
		return nil, err
	}
	return &recvRequest{Request: req, rec: fc.rec, from: int32(from), tag: tag}, nil
}

// SendRecv implements comm.SendRecver: the exchange's post events share
// one clock read, and only the receive completion pays a second — two
// clock reads instead of five for the equivalent Isend+Recv+Wait
// sequence. On the recursive-doubling hot path, where SendRecv is every
// round's only primitive, this is most of the recorder's overhead budget.
// The inner exchange goes through comm.SendRecv, so an inner communicator
// with its own fast path keeps it.
func (fc *Comm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	t0 := fc.rec.nowNs()
	fc.rec.RecordAt(t0, EvSendPost, to, tag, len(sendBuf), 0)
	fc.rec.RecordAt(t0, EvRecvPost, from, tag, len(recvBuf), 0)
	n, err := comm.SendRecv(fc.Unwrap(), to, sendBuf, from, recvBuf, tag)
	if err == nil {
		fc.rec.Record(EvRecvComplete, from, tag, n, 0)
	}
	return n, err
}

// recvRequest records a nonblocking receive's completion exactly once.
// Like the request itself, it must be driven by the rank's goroutine.
type recvRequest struct {
	comm.Request
	rec  *RankRecorder
	from int32
	tag  comm.Tag
	once sync.Once
}

// Wait implements comm.Request.
func (r *recvRequest) Wait() error {
	r.rec.Record(EvWaitBegin, int(r.from), r.tag, 0, 0)
	err := r.Request.Wait()
	r.rec.Record(EvWaitEnd, int(r.from), r.tag, 0, 0)
	if err == nil {
		r.once.Do(func() {
			r.rec.Record(EvRecvComplete, int(r.from), r.tag, r.Request.Len(), 0)
		})
	}
	return err
}

// Test implements comm.Tester when the wrapped request does, recording
// the completion event once on success (a successful poll never blocked,
// so no wait events). A non-polling inner request reports not-done so
// callers fall back to Wait.
func (r *recvRequest) Test() (bool, error) {
	done, err, ok := comm.TryTest(r.Request)
	if !ok || !done {
		return false, nil
	}
	if err == nil {
		r.once.Do(func() {
			r.rec.Record(EvRecvComplete, int(r.from), r.tag, r.Request.Len(), 0)
		})
	}
	return true, err
}
