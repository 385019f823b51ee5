package comm

import "time"

// Forward is the embeddable half of a communicator wrapper: it holds the
// wrapped communicator and every optional capability it offers, resolved
// once when the wrapper is built, and forwards Rank, Size, ChargeCompute
// and the capability methods to it. A wrapper embeds Forward, implements
// Send/Recv/Isend/Irecv, and overrides only the methods it transforms
// (SubComm translates ranks in Failed and Locality, Namespace translates
// tags in PurgeTags) — so no wrapper can silently drop a capability, and
// a capability added here reaches every wrapper at once.
//
// A capability the wrapped communicator lacks degrades to its neutral
// answer: Now 0 with HasClock false (so VirtualClock reports no clock),
// SetOpTimeout and PurgeTags no-ops, Failed nil, Locality unknown.
//
// Forward deliberately does not implement SendRecver: an exchange is data
// path, so each wrapper writes its own SendRecv beside its Send and Recv —
// translate or account, then SendRecv(inner, ...) — which keeps the
// transport's receive-first exchange reachable under any stack. A wrapper
// without one still works: the package-level SendRecv falls back to the
// wrapper's own Isend and Recv.
type Forward struct {
	inner     Comm
	clock     Clock // nil unless a virtual clock genuinely exists beneath
	deadliner Deadliner
	detector  FailureDetector
	locator   Locator
	purger    Purger
}

// NewForward resolves inner's capabilities.
func NewForward(inner Comm) Forward {
	f := Forward{inner: inner}
	f.clock, _ = VirtualClock(inner)
	f.deadliner, _ = inner.(Deadliner)
	f.detector, _ = inner.(FailureDetector)
	f.locator, _ = inner.(Locator)
	f.purger, _ = inner.(Purger)
	return f
}

// Unwrap reveals the wrapped communicator (the errors.Unwrap convention);
// Walk follows it.
func (f *Forward) Unwrap() Comm { return f.inner }

// Rank implements Comm.
func (f *Forward) Rank() int { return f.inner.Rank() }

// Size implements Comm.
func (f *Forward) Size() int { return f.inner.Size() }

// ChargeCompute implements Comm.
func (f *Forward) ChargeCompute(n int) { f.inner.ChargeCompute(n) }

// Now implements Clock: the virtual time beneath, 0 when there is none.
func (f *Forward) Now() float64 {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// HasClock implements ClockProber.
func (f *Forward) HasClock() bool { return f.clock != nil }

// SetOpTimeout implements Deadliner.
func (f *Forward) SetOpTimeout(d time.Duration) {
	if f.deadliner != nil {
		f.deadliner.SetOpTimeout(d)
	}
}

// Failed implements FailureDetector.
func (f *Forward) Failed() []int {
	if f.detector == nil {
		return nil
	}
	return f.detector.Failed()
}

// Locality implements Locator.
func (f *Forward) Locality(rank int) (Locality, bool) {
	if f.locator == nil {
		return Locality{}, false
	}
	return f.locator.Locality(rank)
}

// PurgeTags implements Purger.
func (f *Forward) PurgeTags(lo, hi Tag) {
	if f.purger != nil {
		f.purger.PurgeTags(lo, hi)
	}
}

// Walk visits c and then each communicator beneath it, outermost first,
// following Unwrap until visit returns false or the chain ends at a
// communicator that wraps nothing (a transport). It is how attachments
// that are not capabilities of the substrate — a metrics registry
// (metrics.InstrumentedOf), a flight recorder (flight.RecorderOf), the
// elastic member — stay discoverable under any stack of wrappers. Probes
// run once or twice per collective, so visit should test with a concrete
// type assertion (x.(SomeInterface) is cached per call site) rather than
// go through a generic helper, whose assertion searches the runtime's
// itab table every time.
func Walk(c Comm, visit func(Comm) bool) {
	for c != nil && visit(c) {
		u, ok := c.(interface{ Unwrap() Comm })
		if !ok {
			return
		}
		c = u.Unwrap()
	}
}
