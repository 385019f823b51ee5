package metrics

import (
	"sync"
	"time"

	"exacoll/internal/comm"
)

// Instrument wraps c so every operation updates the registry's counters
// for c's rank. Every capability of c passes through (comm.Forward), and
// wait durations are measured with c's virtual clock when it has one
// (making simulator snapshots deterministic).
//
// Overhead: the blocking Send/Recv paths add only atomic adds and one
// time read — no allocations. Irecv allocates one small request wrapper
// (matching what the substrate itself allocates per posted receive).
func (r *Registry) Instrument(c comm.Comm) comm.Comm {
	return &Comm{Forward: comm.NewForward(c), reg: r, rc: r.rank(c.Rank())}
}

// InstrumentedOf returns the registry reachable from c: c's own when it
// implements Instrumented, or the nearest instrumented communicator's
// beneath it in the wrapper chain — so instrumentation stays discoverable
// under outer wrappers like the flight recorder's. Nil when no registry
// is attached.
func InstrumentedOf(c comm.Comm) *Registry {
	var reg *Registry
	comm.Walk(c, func(x comm.Comm) bool {
		if ic, ok := x.(Instrumented); ok {
			reg = ic.Metrics()
		}
		return reg == nil
	})
	return reg
}

// Comm is an instrumented communicator. It implements comm.Comm and
// Instrumented; use Registry.Instrument to construct it.
type Comm struct {
	comm.Forward
	reg *Registry
	rc  *rankCounters
}

// Metrics implements Instrumented.
func (m *Comm) Metrics() *Registry { return m.reg }

// ChargeCompute implements comm.Comm, counting the γ-term bytes.
func (m *Comm) ChargeCompute(n int) {
	m.Forward.ChargeCompute(n)
	m.rc.computeBytes.Add(uint64(n))
}

// waitStart captures the wait-time origin: virtual seconds on clocked
// substrates, a wall-clock instant otherwise.
func (m *Comm) waitStart() (float64, time.Time) {
	if m.HasClock() {
		return m.Now(), time.Time{}
	}
	return 0, time.Now()
}

// waitNanos converts a waitStart origin into elapsed nanoseconds.
func (m *Comm) waitNanos(v0 float64, t0 time.Time) uint64 {
	if m.HasClock() {
		d := m.Now() - v0
		if d < 0 {
			d = 0
		}
		return uint64(d * 1e9)
	}
	return uint64(time.Since(t0))
}

// Send implements comm.Comm.
func (m *Comm) Send(to int, tag comm.Tag, buf []byte) error {
	if err := m.Unwrap().Send(to, tag, buf); err != nil {
		m.rc.sendErrors.Add(1)
		return err
	}
	m.rc.sends.Add(1)
	m.rc.sendBytes.Add(uint64(len(buf)))
	return nil
}

// Recv implements comm.Comm; the full blocking duration is recorded in
// the rank's wait histogram.
func (m *Comm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	v0, t0 := m.waitStart()
	n, err := m.Unwrap().Recv(from, tag, buf)
	if err != nil {
		m.rc.recvErrors.Add(1)
		return n, err
	}
	m.rc.wait.Observe(m.waitNanos(v0, t0))
	m.rc.recvs.Add(1)
	m.rc.recvBytes.Add(uint64(n))
	return n, nil
}

// SendRecv implements comm.SendRecver: one exchange counts as one send and
// one receive, its whole blocking duration goes to the wait histogram, and
// a failed exchange — which does not say which half failed — counts as one
// receive error.
func (m *Comm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	v0, t0 := m.waitStart()
	n, err := comm.SendRecv(m.Unwrap(), to, sendBuf, from, recvBuf, tag)
	if err != nil {
		m.rc.recvErrors.Add(1)
		return n, err
	}
	m.rc.wait.Observe(m.waitNanos(v0, t0))
	m.rc.sends.Add(1)
	m.rc.sendBytes.Add(uint64(len(sendBuf)))
	m.rc.recvs.Add(1)
	m.rc.recvBytes.Add(uint64(n))
	return n, nil
}

// Isend implements comm.Comm. Sends are counted at post time (the layer
// below buffers eagerly), so the substrate's request is returned as-is.
func (m *Comm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	req, err := m.Unwrap().Isend(to, tag, buf)
	if err != nil {
		m.rc.sendErrors.Add(1)
		return nil, err
	}
	m.rc.sends.Add(1)
	m.rc.sendBytes.Add(uint64(len(buf)))
	return req, nil
}

// Irecv implements comm.Comm. The receive is counted when Wait observes
// completion (only then is the matched length known).
func (m *Comm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	req, err := m.Unwrap().Irecv(from, tag, buf)
	if err != nil {
		m.rc.recvErrors.Add(1)
		return nil, err
	}
	return &recvRequest{Request: req, m: m}, nil
}

// recvRequest counts a nonblocking receive on completion; the wait
// histogram records the time blocked inside Wait (not since the post,
// which would charge compute overlap as waiting).
type recvRequest struct {
	comm.Request
	m    *Comm
	once sync.Once
}

// Wait implements comm.Request.
func (r *recvRequest) Wait() error {
	v0, t0 := r.m.waitStart()
	err := r.Request.Wait()
	r.once.Do(func() {
		if err != nil {
			r.m.rc.recvErrors.Add(1)
			return
		}
		r.m.rc.wait.Observe(r.m.waitNanos(v0, t0))
		r.m.rc.recvs.Add(1)
		r.m.rc.recvBytes.Add(uint64(r.Request.Len()))
	})
	return err
}

// Test implements comm.Tester when the wrapped request does. A completed
// test performs the same one-shot completion accounting as Wait, minus the
// wait-histogram sample (a successful poll never blocked). When the inner
// request does not support polling, Test reports not-done so callers fall
// back to Wait.
func (r *recvRequest) Test() (bool, error) {
	done, err, ok := comm.TryTest(r.Request)
	if !ok || !done {
		return false, nil
	}
	r.once.Do(func() {
		if err != nil {
			r.m.rc.recvErrors.Add(1)
			return
		}
		r.m.rc.recvs.Add(1)
		r.m.rc.recvBytes.Add(uint64(r.Request.Len()))
	})
	return true, err
}
