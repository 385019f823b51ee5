package main

import "time"

// Span names are module names: a span called "gca.allreduce" is time spent
// below that public entry point of package gca, and the part of it not
// covered by child spans is the self time of everything between that entry
// point and the next recorded boundary (for a gca span: gca + tuning +
// core; for the transport spans: the transport itself).
const (
	spanStep          = "step"
	spanTransportPost = "transport.post" // Send, Isend, Irecv: handing a message to the transport
	spanTransportWait = "transport.wait" // Recv, Request.Wait: blocked on the transport
)

// span is one recorded interval. Parent indexes the same rank's span list
// (-1 for a root), so a span is identified by (Rank, index); spans of one
// step share Step.
type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Step   int    `json:"step"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rankTracer records one rank's spans in memory. A rank is driven by one
// goroutine, so the open-span stack needs no lock. Spans are kept only for
// sampled steps and only up to limit, which bounds memory on workloads
// that run tens of thousands of steps; the counters a caller keeps beside
// the tracer (see spanComm) cover every step.
type rankTracer struct {
	rank   int
	base   time.Time
	every  int // keep spans of steps where step%every == 0
	limit  int
	spans  []span
	stack  []int
	step   int
	record bool
}

func newRankTracer(rank int, base time.Time, every, limit int) *rankTracer {
	if every < 1 {
		every = 1
	}
	return &rankTracer{rank: rank, base: base, every: every, limit: limit}
}

func (t *rankTracer) now() int64 { return int64(time.Since(t.base)) }

// beginStep opens the root span of one step and decides whether the step's
// spans are kept.
func (t *rankTracer) beginStep(step int) int {
	t.step = step
	t.record = step%t.every == 0 && len(t.spans) < t.limit
	t.stack = t.stack[:0]
	return t.begin(spanStep)
}

// begin opens a span under the innermost open span and returns its handle
// (-1 when the step is not being recorded).
func (t *rankTracer) begin(name string) int {
	if !t.record {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Rank: t.rank, Step: t.step, Parent: t.parent(), Start: t.now()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *rankTracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// leaf records a completed childless span under the innermost open span.
func (t *rankTracer) leaf(name string, start, end int64) {
	if !t.record {
		return
	}
	t.spans = append(t.spans, span{Name: name, Rank: t.rank, Step: t.step, Parent: t.parent(), Start: start, End: end})
}

// parent is the innermost open span, -1 at the root.
func (t *rankTracer) parent() int {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// spanTotals is what one span name adds up to over a span list.
type spanTotals struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

// selfTimes sums, per span name, the spans' durations and self times over
// one rank's span list. A span's self time is its duration minus the part
// of its interval that its direct children cover; children of one parent
// are recorded by a single goroutine and so never overlap each other.
func selfTimes(spans []span) map[string]spanTotals {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanTotals{}
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.SelfNs += s.End - s.Start - child[i]
		out[s.Name] = t
	}
	return out
}

// mergeTotals adds b into a.
func mergeTotals(a, b map[string]spanTotals) {
	for k, v := range b {
		t := a[k]
		t.Count += v.Count
		t.Total += v.Total
		t.SelfNs += v.SelfNs
		a[k] = t
	}
}
