// Package match is the repository's one (source, tag) message matcher.
// Every real transport — mem, tcp, shm — gives each rank one Engine and
// posts and delivers through it, so the MPI point-to-point semantics the
// collective algorithms rely on are defined exactly once:
//
//   - exact (source, tag) matching, FIFO per (source, tag) pair, whichever
//     of the receive and the message arrives first;
//   - eager buffering: a message with no posted receive parks on the
//     unexpected queue until one is posted;
//   - truncation: a message longer than the posted buffer fails that
//     receive with comm.ErrTruncated and is consumed;
//   - per-peer sticky failure (FailPeer): receives pending on the peer fail,
//     later posts fail fast, but a message buffered before the failure was
//     "on the wire" and still matches;
//   - cancellation (Cancel, and the per-op deadline built on it): a
//     cancelled receive is deregistered, so its buffer is never written
//     afterwards;
//   - tag-window purge (PurgeTags) and whole-engine poisoning (Fail).
//
// One delivery rule holds on every transport: a receive that is already
// posted when its message arrives is filled in place. Transports deliver
// through DeliverTo with a fill callback — a copy out of the sender's
// buffer (mem), out of a shared ring (shm), or io.ReadFull off the socket
// (unstriped tcp) — which writes straight into the posted buffer: one copy
// end to end. Only a message that finds no receive is staged in a pooled
// buffer and parked. Deliver takes an already-assembled pool buffer (tcp's
// stripe reassembly, and DeliverTo's own staging tail); the engine owns it
// from that point and recycles it once copied out (or dropped at
// purge/teardown). Exchange is the blocking pairwise exchange that makes
// the in-place case the common one: it posts the receive before it runs
// the send, and withdraws it again if the send fails.
//
// Allocation discipline: a posted receive and its comm.Request are one
// object (*Recv), completion is announced on the engine's condition
// variable rather than a per-receive channel, the blocking Recv and
// Exchange paths recycle their receive through a free list (0
// allocations), and queues pop by shifting down so each (source, tag)
// entry keeps its backing array. A timer exists only while a
// deadline-armed Wait is blocked.
package match

import (
	"fmt"
	"sort"
	"sync"
	"time"

	scratch "exacoll/internal/buf"
	"exacoll/internal/comm"
)

// Engine is one rank's matching state. All fields are guarded by mu; cond
// (L = &mu) is broadcast whenever a receive posted on this engine settles.
// Failures are tracked per peer so one peer's death does not poison
// receives still pending from others.
type Engine struct {
	mu         sync.Mutex
	cond       sync.Cond
	unexpected map[key][][]byte // eager payloads, pool-owned
	posted     map[key][]*Recv
	peerErr    map[int]error // sticky per-peer failure
	free       []*Recv       // settled receives recycled by Recv and Exchange
	closed     error

	inPlace, staged Deliveries // how messages reached their receive
}

// Deliveries counts messages and their payload bytes.
type Deliveries struct{ Msgs, Bytes uint64 }

func (d *Deliveries) add(n int) {
	d.Msgs++
	d.Bytes += uint64(n)
}

// key identifies a message stream. The hot paths build it once, before
// taking the lock, and index the maps through a pointer to it (m[*k]): the
// compiler then hands the map runtime that address, where a by-value local
// is re-copied to a temporary in front of every map call and the hash's
// wide load stalls on the two narrow stores just made — 2.7% of a whole
// solver_small_mem step, measured.
type key struct {
	src int
	tag comm.Tag
}

// maxFree bounds the per-engine receive free list.
const maxFree = 64

// New returns an empty engine.
func New() *Engine {
	e := &Engine{
		unexpected: make(map[key][][]byte),
		posted:     make(map[key][]*Recv),
		peerErr:    make(map[int]error),
	}
	e.cond.L = &e.mu
	return e
}

// Recv is one posted receive and its comm.Request handle (it also
// implements comm.Tester). n, err and settled are guarded by the engine's
// mutex; Wait and Test read them under it, which orders a later Len.
type Recv struct {
	e       *Engine
	key     key
	buf     []byte
	n       int
	err     error
	settled bool
	timeout time.Duration // per-op deadline applied by Wait; 0 = unbounded
}

// popRecv removes and returns the oldest receive posted for k, or nil.
// Pops shift down so the map entry keeps its backing array: steady-state
// traffic on a key then appends without allocating.
func (e *Engine) popRecv(k *key) *Recv {
	prs := e.posted[*k]
	if len(prs) == 0 {
		return nil
	}
	pr := prs[0]
	copy(prs, prs[1:])
	prs[len(prs)-1] = nil
	e.posted[*k] = prs[:len(prs)-1]
	return pr
}

// finish settles the receive. Caller holds e.mu.
func (r *Recv) finish(n int, err error) {
	r.n, r.err, r.settled = n, err, true
	r.e.cond.Broadcast()
}

// complete settles the receive with payload, taking ownership of it (a
// pool buffer). Caller holds e.mu.
func (r *Recv) complete(payload []byte) {
	if len(payload) > len(r.buf) {
		r.finish(0, fmt.Errorf("%w: have %d bytes, message is %d",
			comm.ErrTruncated, len(r.buf), len(payload)))
	} else {
		r.finish(copy(r.buf, payload), nil)
	}
	scratch.Put(payload)
}

// Deliver hands an inbound payload — a pool-owned buffer — to its oldest
// matching receive, or parks it on the unexpected queue. The engine owns
// the buffer from here. A closed engine or a source already marked failed
// drops the payload and reports why (byte-stream transports, whose reader
// is about to stop anyway, ignore the result).
func (e *Engine) Deliver(src int, tag comm.Tag, payload []byte) error {
	k := &key{src, tag}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.failure(src); err != nil {
		scratch.Put(payload)
		return err
	}
	e.staged.add(len(payload))
	if pr := e.popRecv(k); pr != nil {
		pr.complete(payload)
		return nil
	}
	e.unexpected[*k] = append(e.unexpected[*k], payload)
	return nil
}

// failure is the error that makes src's traffic undeliverable: the
// engine's own closure, else the peer's recorded failure. Caller holds e.mu.
func (e *Engine) failure(src int) error {
	if e.closed != nil {
		return e.closed
	}
	return e.peerErr[src]
}

// DeliverTo delivers an n-byte message whose payload is produced by read —
// a callback that must fill exactly its argument (a copy from the sender's
// buffer, out of a shared-memory ring, or off a socket). When a matching
// receive is already posted and large enough, read writes straight into
// the user's buffer: one copy end-to-end. Otherwise the payload is staged
// in a pooled buffer and handed to Deliver (which parks it, or fails a
// too-small receive).
//
// The caller must invoke DeliverTo for one source from a single goroutine
// (the transport's per-peer reader), which preserves FIFO per (source,
// tag). read's error is returned verbatim and fails the receive it was
// filling; the caller is expected to tear the peer down in response.
func (e *Engine) DeliverTo(src int, tag comm.Tag, n int, read func(dst []byte) error) error {
	k := &key{src, tag}
	e.mu.Lock()
	var pr *Recv
	if prs := e.posted[*k]; len(prs) > 0 && len(prs[0].buf) >= n {
		pr = e.popRecv(k)
		e.inPlace.add(n)
	}
	e.mu.Unlock()
	if pr != nil {
		// The receive was unlinked above, so Cancel, PurgeTags and FailPeer
		// can no longer reach it: filling outside the lock is race-free.
		err := read(pr.buf[:n])
		if err != nil {
			n = 0
		}
		e.mu.Lock()
		pr.finish(n, err)
		e.mu.Unlock()
		return err
	}
	// Stage. A failed source or a closed engine has no posted receives
	// (FailPeer and Fail fail them, post refuses new ones), so its payload
	// always lands here: still consumed, to keep the producer's stream
	// coherent, then dropped by Deliver.
	payload := scratch.Get(n)
	if err := read(payload); err != nil {
		scratch.Put(payload)
		return err
	}
	e.Deliver(src, tag, payload)
	return nil
}

// Post registers a receive into buf, matching the oldest already-buffered
// message if one exists. Buffered messages are deliverable even if the
// peer has since died (they were "on the wire"); only once the queue is
// empty does the peer's failure fail the post.
func (e *Engine) Post(src int, tag comm.Tag, buf []byte) (*Recv, error) {
	k := &key{src, tag}
	e.mu.Lock()
	pr, err := e.post(k, buf, false)
	e.mu.Unlock()
	return pr, err
}

// post is Post with e.mu held. recycle lets it draw the receive from the
// free list (the blocking path, which never lets the receive escape).
func (e *Engine) post(k *key, buf []byte, recycle bool) (*Recv, error) {
	if e.closed != nil {
		return nil, e.closed
	}
	msgs := e.unexpected[*k]
	if len(msgs) == 0 {
		if err := e.peerErr[k.src]; err != nil {
			return nil, err
		}
	}
	var pr *Recv
	if n := len(e.free); recycle && n > 0 {
		pr = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*pr = Recv{e: e, key: *k, buf: buf}
	} else {
		pr = &Recv{e: e, key: *k, buf: buf}
	}
	if len(msgs) == 0 {
		e.posted[*k] = append(e.posted[*k], pr)
		return pr, nil
	}
	m := msgs[0]
	copy(msgs, msgs[1:]) // shift-down pop, see popRecv
	msgs[len(msgs)-1] = nil
	e.unexpected[*k] = msgs[:len(msgs)-1]
	pr.complete(m)
	return pr, nil
}

// Request arms a posted receive with the per-op timeout captured at post
// time and returns it as a comm.Request. src and tag are pr's own (it
// remembers them); the parameters stay for callers written against the
// two-object API.
func (e *Engine) Request(pr *Recv, src int, tag comm.Tag, timeout time.Duration) comm.Request {
	pr.timeout = timeout
	return pr
}

// Recv is the blocking receive: Post, Wait under the given timeout, and
// recycle the receive, which never escapes this call — zero allocations
// in steady state.
func (e *Engine) Recv(src int, tag comm.Tag, buf []byte, timeout time.Duration) (int, error) {
	k := &key{src, tag}
	e.mu.Lock()
	defer e.mu.Unlock()
	pr, err := e.post(k, buf, true)
	if err != nil {
		return 0, err
	}
	return e.await(pr, timeout)
}

// Exchange is the blocking pairwise exchange every transport's SendRecv is
// written on: post the receive into buf, run send (the transport's own
// Send towards the exchange partner), wait for the receive. Because the
// receive is posted before the send starts, a partner doing the same finds
// it posted and fills it in place — the single-copy path of DeliverTo —
// where send-then-receive would park every message of a pairwise exchange
// on the unexpected queue first.
//
// If send fails, its error is returned and the posted receive is withdrawn
// with Cancel, so buf is never written after Exchange returns; when the
// cancel loses the race to a delivery already filling buf, that delivery
// is waited for. Like Recv, the receive never escapes: zero allocations in
// steady state.
func (e *Engine) Exchange(src int, tag comm.Tag, buf []byte, timeout time.Duration, send func() error) (int, error) {
	k := &key{src, tag}
	e.mu.Lock()
	pr, err := e.post(k, buf, true)
	e.mu.Unlock()
	if err != nil {
		return 0, err
	}
	serr := send()
	e.mu.Lock()
	defer e.mu.Unlock()
	if serr != nil {
		e.cancel(pr, serr)
		e.await(pr, timeout)
		return 0, serr
	}
	return e.await(pr, timeout)
}

// await waits for pr under timeout, returns its result and recycles it.
// Caller holds e.mu and must not touch pr afterwards.
func (e *Engine) await(pr *Recv, timeout time.Duration) (int, error) {
	pr.timeout = timeout
	pr.waitLocked()
	n, err := pr.n, pr.err
	// A deadline-armed receive may still be referenced by its timer's
	// callback, so only unbounded ones are recycled.
	if timeout <= 0 && len(e.free) < maxFree {
		*pr = Recv{}
		e.free = append(e.free, pr)
	}
	return n, err
}

// waitLocked blocks until the receive settles. With a deadline armed, a
// timer cancels the receive when it expires; if the message won the race
// the cancel finds nothing and the wait runs on to the completion.
// Caller holds e.mu.
func (r *Recv) waitLocked() {
	if r.settled {
		return
	}
	var t *time.Timer
	if r.timeout > 0 {
		t = time.AfterFunc(r.timeout, func() {
			r.e.Cancel(r, fmt.Errorf("%w: no message from rank %d tag %d within %v",
				comm.ErrTimeout, r.key.src, r.key.tag, r.timeout))
		})
	}
	for !r.settled {
		r.e.cond.Wait()
	}
	if t != nil {
		t.Stop()
	}
}

// Wait implements comm.Request.
func (r *Recv) Wait() error {
	r.e.mu.Lock()
	r.waitLocked()
	err := r.err
	r.e.mu.Unlock()
	return err
}

// Len implements comm.Request: the matched length, valid once Wait (or a
// done Test) has returned.
func (r *Recv) Len() int { return r.n }

// Test implements comm.Tester: a nonblocking completion poll.
func (r *Recv) Test() (bool, error) {
	r.e.mu.Lock()
	settled, err := r.settled, r.err
	r.e.mu.Unlock()
	return settled, err
}

// Cancel removes a still-pending posted receive and fails it with err,
// reporting false when it already settled (or is being filled by
// DeliverTo) concurrently, in which case its own result stands.
func (e *Engine) Cancel(pr *Recv, err error) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cancel(pr, err)
}

// cancel is Cancel with e.mu held.
func (e *Engine) cancel(pr *Recv, err error) bool {
	prs := e.posted[pr.key]
	for i, q := range prs {
		if q != pr {
			continue
		}
		copy(prs[i:], prs[i+1:])
		prs[len(prs)-1] = nil
		e.posted[pr.key] = prs[:len(prs)-1]
		pr.finish(0, err)
		return true
	}
	return false
}

// PeerError returns the recorded failure of a peer (nil while healthy),
// or the engine's own closure.
func (e *Engine) PeerError(peer int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failure(peer)
}

// FailedPeers lists the peers with recorded failures in ascending order
// (the order comm.FailureDetector promises).
func (e *Engine) FailedPeers() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []int
	for peer := range e.peerErr {
		out = append(out, peer)
	}
	sort.Ints(out)
	return out
}

// failPosted fails every posted receive whose key satisfies match and
// drops the emptied queues. Caller holds e.mu.
func (e *Engine) failPosted(match func(key) bool, err error) {
	for k, prs := range e.posted {
		if !match(k) {
			continue
		}
		for _, pr := range prs {
			pr.finish(0, err)
		}
		delete(e.posted, k)
	}
}

// dropUnexpected recycles every buffered message whose key satisfies
// match. Caller holds e.mu.
func (e *Engine) dropUnexpected(match func(key) bool) {
	for k, msgs := range e.unexpected {
		if !match(k) {
			continue
		}
		for _, m := range msgs {
			scratch.Put(m)
		}
		delete(e.unexpected, k)
	}
}

// PurgeTags drops buffered messages with tags in [lo, hi) and cancels
// receives still posted there with ErrTimeout (the quiesce of a retired
// collective epoch: they belong to a collective no one will complete).
func (e *Engine) PurgeTags(lo, hi comm.Tag) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in := func(k key) bool { return k.tag >= lo && k.tag < hi }
	e.dropUnexpected(in)
	e.failPosted(in, fmt.Errorf("%w: receive purged with its tag window", comm.ErrTimeout))
}

// FailPeer marks one peer dead: receives pending on that peer fail with
// err and future posts for it fail fast, but already-buffered messages
// stay matchable and traffic with other peers continues. The first
// recorded failure sticks.
func (e *Engine) FailPeer(peer int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed != nil || e.peerErr[peer] != nil {
		return
	}
	e.peerErr[peer] = err
	e.failPosted(func(k key) bool { return k.src == peer }, err)
}

// Fail poisons the whole engine (local Close): all pending and future
// receives fail with err and the unexpected queue is recycled.
func (e *Engine) Fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed != nil {
		return
	}
	e.closed = err
	all := func(key) bool { return true }
	e.failPosted(all, err)
	e.dropUnexpected(all)
}

// Sent is the request every successful eager Isend returns: the send
// finished at post time (the payload was copied or written out) and carries
// no per-send state, so all sends share this one value. Len reports 0,
// which the comm.Request contract permits for sends.
var Sent comm.Request = sent{}

type sent struct{}

func (sent) Wait() error         { return nil }
func (sent) Len() int            { return 0 }
func (sent) Test() (bool, error) { return true, nil }

// DeliveryStats reports how this engine's inbound messages reached their
// receives so far: filled in place by DeliverTo (the receive was posted
// first), or staged through a pooled buffer (parked until a receive was
// posted, reassembled stripes, or a receive too small to fill). Messages
// dropped for a failed source or a closed engine count as neither.
func (e *Engine) DeliveryStats() (inPlace, staged Deliveries) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inPlace, e.staged
}

// UnexpectedCount reports how many (source, tag) queues currently hold
// buffered unexpected messages — a test observability hook.
func (e *Engine) UnexpectedCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, msgs := range e.unexpected {
		if len(msgs) > 0 {
			n++
		}
	}
	return n
}
