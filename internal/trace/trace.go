// Package trace records the point-to-point operations a collective issues
// — per-rank event logs with virtual timestamps when the underlying
// substrate tracks a clock — and renders them for inspection: Chrome
// trace-viewer JSON, per-rank summaries, and ASCII dumps of tree and ring
// schedules (the paper's Figs. 1–6 as text).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"exacoll/internal/comm"
)

// Kind labels an event.
type Kind string

// Event kinds.
const (
	KindSend    Kind = "send"
	KindRecv    Kind = "recv"
	KindCompute Kind = "compute"
	// KindSpan is a labeled interval (e.g. one collective call recorded by
	// the metrics subsystem's selection telemetry) rather than a single
	// point-to-point operation.
	KindSpan Kind = "span"
)

// Event is one recorded operation.
type Event struct {
	Rank  int
	Kind  Kind
	Peer  int
	Tag   comm.Tag
	Bytes int
	// Time is the rank's virtual clock after the operation (0 on real
	// transports). For spans it is the start time.
	Time float64
	// Dur is the span duration in seconds (0 for point events).
	Dur float64
	// Label names a span (empty for point events).
	Label string
	// Seq is the global record order (not meaningful across ranks on real
	// transports; deterministic on the simulator).
	Seq int
}

// Sink collects events from all ranks of one run.
type Sink struct {
	mu     sync.Mutex
	events []Event
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{} }

// record appends one event.
func (s *Sink) record(e Event) {
	s.mu.Lock()
	e.Seq = len(s.events)
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// RecordSpan records a labeled interval on one rank's timeline: start and
// dur in seconds (virtual or wall, matching the rest of the sink). It
// satisfies the metrics package's SpanSink, so a metrics.Registry wired
// to a Sink renders every selection decision as a Chrome-trace slice.
func (s *Sink) RecordSpan(rank int, label string, start, dur float64) {
	s.record(Event{Rank: rank, Kind: KindSpan, Peer: -1, Label: label, Time: start, Dur: dur})
}

// Events returns a copy of the recorded events in record order.
func (s *Sink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Wrap returns a comm.Comm that records every operation of c into the
// sink, stamped with c's virtual time (0 on wall-clock substrates). Every
// capability of c passes through (comm.Forward).
func (s *Sink) Wrap(c comm.Comm) comm.Comm {
	return &tracedComm{Forward: comm.NewForward(c), sink: s}
}

type tracedComm struct {
	comm.Forward
	sink *Sink
}

func (t *tracedComm) ChargeCompute(n int) {
	t.Forward.ChargeCompute(n)
	t.sink.record(Event{Rank: t.Rank(), Kind: KindCompute, Peer: -1, Bytes: n, Time: t.Now()})
}

func (t *tracedComm) Send(to int, tag comm.Tag, buf []byte) error {
	err := t.Unwrap().Send(to, tag, buf)
	if err == nil {
		t.sink.record(Event{Rank: t.Rank(), Kind: KindSend, Peer: to, Tag: tag, Bytes: len(buf), Time: t.Now()})
	}
	return err
}

func (t *tracedComm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	n, err := t.Unwrap().Recv(from, tag, buf)
	if err == nil {
		t.sink.record(Event{Rank: t.Rank(), Kind: KindRecv, Peer: from, Tag: tag, Bytes: n, Time: t.Now()})
	}
	return n, err
}

// SendRecv implements comm.SendRecver: the send stamped when the exchange
// started, the receive when it completed.
func (t *tracedComm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	t0 := t.Now()
	n, err := comm.SendRecv(t.Unwrap(), to, sendBuf, from, recvBuf, tag)
	if err == nil {
		t.sink.record(Event{Rank: t.Rank(), Kind: KindSend, Peer: to, Tag: tag, Bytes: len(sendBuf), Time: t0})
		t.sink.record(Event{Rank: t.Rank(), Kind: KindRecv, Peer: from, Tag: tag, Bytes: n, Time: t.Now()})
	}
	return n, err
}

func (t *tracedComm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	req, err := t.Unwrap().Isend(to, tag, buf)
	if err != nil {
		return nil, err
	}
	t.sink.record(Event{Rank: t.Rank(), Kind: KindSend, Peer: to, Tag: tag, Bytes: len(buf), Time: t.Now()})
	return req, nil
}

func (t *tracedComm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	req, err := t.Unwrap().Irecv(from, tag, buf)
	if err != nil {
		return nil, err
	}
	return &tracedRecvReq{Request: req, t: t, from: from, tag: tag}, nil
}

// tracedRecvReq records the receive when it completes.
type tracedRecvReq struct {
	comm.Request
	t    *tracedComm
	from int
	tag  comm.Tag
	once sync.Once
}

func (r *tracedRecvReq) Wait() error {
	err := r.Request.Wait()
	if err == nil {
		r.once.Do(func() {
			r.t.sink.record(Event{Rank: r.t.Rank(), Kind: KindRecv, Peer: r.from,
				Tag: r.tag, Bytes: r.Request.Len(), Time: r.t.Now()})
		})
	}
	return err
}

// Test implements comm.Tester when the wrapped request does, recording the
// receive event once on successful completion (same one-shot as Wait).
func (r *tracedRecvReq) Test() (bool, error) {
	done, err, ok := comm.TryTest(r.Request)
	if !ok || !done {
		return false, nil
	}
	if err == nil {
		r.once.Do(func() {
			r.t.sink.record(Event{Rank: r.t.Rank(), Kind: KindRecv, Peer: r.from,
				Tag: r.tag, Bytes: r.Request.Len(), Time: r.t.Now()})
		})
	}
	return true, err
}

// Summary aggregates a sink per rank.
type Summary struct {
	Rank      int
	Sends     int
	Recvs     int
	BytesSent int
}

// Summarize returns per-rank totals sorted by rank.
func (s *Sink) Summarize() []Summary {
	byRank := map[int]*Summary{}
	for _, e := range s.Events() {
		sum, ok := byRank[e.Rank]
		if !ok {
			sum = &Summary{Rank: e.Rank}
			byRank[e.Rank] = sum
		}
		switch e.Kind {
		case KindSend:
			sum.Sends++
			sum.BytesSent += e.Bytes
		case KindRecv:
			sum.Recvs++
		}
	}
	out := make([]Summary, 0, len(byRank))
	for _, sum := range byRank {
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// WriteChromeTrace emits the sink's events as Chrome trace-viewer JSON.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	return WriteChromeEvents(w, s.Events())
}

// WriteChromeEvents emits events as Chrome trace-viewer JSON (open in
// chrome://tracing or Perfetto): one "thread" per rank, spans (KindSpan)
// as complete events and everything else as instants, timestamped in
// microseconds. Shared by the sink and the flight recorder's merged
// cross-rank timeline (internal/flight), which synthesizes Events in any
// time base it likes.
func WriteChromeEvents(w io.Writer, events []Event) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range events {
		comma := ","
		if i == len(events)-1 {
			comma = ""
		}
		if e.Kind == KindSpan {
			// Spans render as complete events ("X"): a slice with a
			// duration on the rank's timeline.
			if _, err := fmt.Fprintf(w,
				"  {\"name\": %q, \"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n",
				e.Label, e.Rank, e.Time*1e6, e.Dur*1e6, comma); err != nil {
				return err
			}
			continue
		}
		name := string(e.Kind)
		if e.Peer >= 0 {
			name = fmt.Sprintf("%s peer=%d tag=%d", e.Kind, e.Peer, e.Tag)
		}
		if _, err := fmt.Fprintf(w,
			"  {\"name\": %q, \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"args\": {\"bytes\": %d}}%s\n",
			name, e.Rank, e.Time*1e6, e.Bytes, comma); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// FormatEvents renders events as an aligned text log.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		if e.Kind == KindSpan {
			fmt.Fprintf(&b, "%4d %10.3fus rank %3d %-7s %-26s %7.3fus\n",
				e.Seq, e.Time*1e6, e.Rank, e.Kind, e.Label, e.Dur*1e6)
			continue
		}
		if e.Peer >= 0 {
			fmt.Fprintf(&b, "%4d %10.3fus rank %3d %-7s peer %3d tag %6d %8dB\n",
				e.Seq, e.Time*1e6, e.Rank, e.Kind, e.Peer, e.Tag, e.Bytes)
		} else {
			fmt.Fprintf(&b, "%4d %10.3fus rank %3d %-7s %26s %8dB\n",
				e.Seq, e.Time*1e6, e.Rank, e.Kind, "", e.Bytes)
		}
	}
	return b.String()
}
