package shm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"exacoll/internal/buf"
	"exacoll/internal/comm"
	"exacoll/internal/transport/match"
)

// Options configures a shared-memory world. The zero value is usable.
type Options struct {
	// RingBytes is the per-pair control-ring capacity (rounded up to a
	// power of two; default 256 KiB). Small messages travel inline here.
	RingBytes int
	// BigBytes is the per-pair big-handoff-ring capacity (rounded up to
	// a power of two; default 4 MiB). Payloads above InlineMax stream
	// through it, so it bounds in-flight bytes, not message size.
	BigBytes int
	// InlineMax is the largest payload carried inline in the control
	// ring (default min(RingBytes/4, 32 KiB)).
	InlineMax int
	// Heartbeat is the liveness publish interval (default 25ms).
	// Negative disables publishing — a test hook that makes this rank
	// look wedged to its peers' staleness detectors.
	Heartbeat time.Duration
	// SuspectAfter is how long a peer's heartbeat counter may stand
	// still before it is declared dead (default 2s).
	SuspectAfter time.Duration
	// Timeout bounds Attach: how long to wait for the region file to
	// appear and for all ranks to arrive (default 30s).
	Timeout time.Duration
	// NoWait skips the all-ranks-attached barrier in Attach. The
	// in-process World always attaches NoWait, matching mem's lazy
	// rank startup.
	NoWait bool
	// Ports is reported as Locality.Ports (0 = unknown); SetLocality
	// overrides it.
	Ports int
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (o Options) geometry(p int) geometry {
	ring := o.RingBytes
	if ring <= 0 {
		ring = 256 << 10
	}
	big := o.BigBytes
	if big <= 0 {
		big = 4 << 20
	}
	if ring < 4096 {
		ring = 4096
	}
	if big < 4096 {
		big = 4096
	}
	return geometry{p: p, ringCap: ceilPow2(ring), bigCap: ceilPow2(big)}
}

func (o Options) inlineMax(geo geometry) int {
	if o.InlineMax > 0 {
		return o.InlineMax
	}
	im := geo.ringCap / 4
	if im > 32<<10 {
		im = 32 << 10
	}
	return im
}

func (o Options) heartbeat() time.Duration {
	if o.Heartbeat != 0 {
		return o.Heartbeat
	}
	return 25 * time.Millisecond
}

func (o Options) suspectAfter() time.Duration {
	if o.SuspectAfter > 0 {
		return o.SuspectAfter
	}
	return 2 * time.Second
}

func (o Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 30 * time.Second
}

// frameSize is the control-ring frame header: tag u32, n u32, flags u32,
// reserved u32. Inline payload follows immediately; big payloads stream
// through the pair's big ring in the same order frames were published.
const frameSize = 16

const flagBig = 1 << 0

// maxMsgBytes bounds a single message (sanity check against a corrupt
// region; matches the tcp transport's ceiling).
const maxMsgBytes = 1 << 30

// Proc is one rank's endpoint in a shared-memory world. It implements
// comm.Comm plus the Deadliner, FailureDetector, Purger, and Locator
// capability interfaces, so every wrapper in the repo — nbc, ft, flight,
// topo, svc — composes over it unchanged.
type Proc struct {
	rg    *region
	ownRg bool // this Proc owns the mapping (cross-process Attach)
	rank  int
	size  int

	engine    *match.Engine
	sendMu    []sync.Mutex // per-destination: serialize frame+payload publishes
	inlineMax int
	opTimeout atomic.Int64 // nanoseconds; 0 = unbounded

	basePorts int
	synPPN    atomic.Int64 // SetLocality override (0 = native single-node view)
	synPorts  atomic.Int64

	hb      time.Duration
	suspect time.Duration
	mute    atomic.Bool // test hook: stop publishing heartbeats

	stop      chan struct{}
	stopped   atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// newProc builds a rank endpoint over an already-mapped region, marks its
// slot attached, and starts the per-source readers and the liveness
// monitor. ownRg hands the mapping's lifetime to this Proc.
func newProc(rg *region, rank int, opts Options, ownRg bool) (*Proc, error) {
	p := &Proc{
		rg:        rg,
		ownRg:     ownRg,
		rank:      rank,
		size:      rg.geo.p,
		engine:    match.New(),
		sendMu:    make([]sync.Mutex, rg.geo.p),
		inlineMax: opts.inlineMax(rg.geo),
		basePorts: opts.Ports,
		hb:        opts.Heartbeat,
		suspect:   opts.suspectAfter(),
		stop:      make(chan struct{}),
	}
	if p.hb == 0 {
		p.hb = opts.heartbeat()
	}
	if p.hb < 0 {
		p.mute.Store(true)
		p.hb = 25 * time.Millisecond
	}
	if !atomic.CompareAndSwapUint64(rg.slotState(rank), slotEmpty, slotAttached) {
		return nil, fmt.Errorf("shm: rank %d slot already claimed (state %d)",
			rank, atomic.LoadUint64(rg.slotState(rank)))
	}
	for s := 0; s < p.size; s++ {
		if s == rank {
			continue
		}
		p.wg.Add(1)
		go p.readLoop(s)
	}
	p.wg.Add(1)
	go p.monitor()
	return p, nil
}

func (p *Proc) Rank() int         { return p.rank }
func (p *Proc) Size() int         { return p.size }
func (p *Proc) ChargeCompute(int) {}

// SetOpTimeout implements comm.Deadliner for this handle.
func (p *Proc) SetOpTimeout(d time.Duration) { p.opTimeout.Store(int64(d)) }

// Failed implements comm.FailureDetector.
func (p *Proc) Failed() []int { return p.engine.FailedPeers() }

// PurgeTags implements comm.Purger.
func (p *Proc) PurgeTags(lo, hi comm.Tag) { p.engine.PurgeTags(lo, hi) }

// SetLocality declares a synthetic layout (rank r on node r/ppn), the
// same test hook mem and tcp expose; it overrides the native
// single-node view.
func (p *Proc) SetLocality(ppn, ports int) {
	p.synPPN.Store(int64(ppn))
	p.synPorts.Store(int64(ports))
}

// Locality implements comm.Locator. Natively every rank of a
// shared-memory world lives on one node: Node 0, LocalRank = rank,
// PPN = world size — the intranode leaf the topo composition engine
// builds its hierarchy on.
func (p *Proc) Locality(rank int) (comm.Locality, bool) {
	if rank < 0 || rank >= p.size {
		return comm.Locality{}, false
	}
	if ppn := int(p.synPPN.Load()); ppn >= 1 {
		return comm.Locality{
			Node:      rank / ppn,
			LocalRank: rank % ppn,
			PPN:       ppn,
			Ports:     int(p.synPorts.Load()),
		}, true
	}
	return comm.Locality{Node: 0, LocalRank: rank, PPN: p.size, Ports: p.basePorts}, true
}

func (p *Proc) deadline() time.Time {
	if d := time.Duration(p.opTimeout.Load()); d > 0 {
		return time.Now().Add(d)
	}
	return time.Time{}
}

// sendAbort is polled by a blocked ring write: it fails the publish when
// this rank is closing, the destination is gone, or the op deadline
// passed. An abort can leave a partial frame in the stream, so the
// caller must fence the peer afterwards (same contract as tcp's
// sendError).
func (p *Proc) sendAbort(to int, deadline time.Time) func() error {
	return func() error {
		if p.stopped.Load() {
			return comm.ErrClosed
		}
		switch atomic.LoadUint64(p.rg.slotState(to)) {
		case slotDead, slotDeparted:
			return fmt.Errorf("shm: rank %d gone: %w", to, comm.ErrPeerDead)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("shm: send to rank %d: %w", to, comm.ErrTimeout)
		}
		return nil
	}
}

func (p *Proc) Send(to int, tag comm.Tag, b []byte) error {
	if err := comm.CheckPeer(p.rank, to, p.size); err != nil {
		return err
	}
	if p.stopped.Load() {
		return comm.ErrClosed
	}
	if err := p.engine.PeerError(to); err != nil {
		return err
	}
	if len(b) > maxMsgBytes {
		return fmt.Errorf("shm: message of %d bytes exceeds %d-byte limit", len(b), maxMsgBytes)
	}
	switch atomic.LoadUint64(p.rg.slotState(to)) {
	case slotDead, slotDeparted:
		err := fmt.Errorf("shm: send to dead rank %d: %w", to, comm.ErrPeerDead)
		p.engine.FailPeer(to, err)
		return err
	}
	abort := p.sendAbort(to, p.deadline())

	var hdr [frameSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tag))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(b)))

	p.sendMu[to].Lock()
	defer p.sendMu[to].Unlock()
	ctrl := p.rg.ctrl(p.rank, to)
	var err error
	if len(b) <= p.inlineMax {
		// One publish: header and payload coalesced through a scratch
		// frame, so the consumer sees them appear together.
		frame := buf.Get(frameSize + len(b))
		copy(frame, hdr[:])
		copy(frame[frameSize:], b)
		err = ctrl.writeAll(frame[:frameSize+len(b)], abort)
		buf.Put(frame)
	} else {
		binary.LittleEndian.PutUint32(hdr[8:], flagBig)
		if err = ctrl.writeAll(hdr[:], abort); err == nil {
			err = p.rg.big(p.rank, to).writeAll(b, abort)
		}
	}
	if err != nil {
		// The pair stream may hold a partial publish; nothing sent to
		// this peer can be trusted again.
		p.engine.FailPeer(to, err)
		return err
	}
	return nil
}

func (p *Proc) Isend(to int, tag comm.Tag, b []byte) (comm.Request, error) {
	if err := p.Send(to, tag, b); err != nil {
		return nil, err
	}
	return match.Sent, nil
}

func (p *Proc) Irecv(from int, tag comm.Tag, b []byte) (comm.Request, error) {
	if err := comm.CheckPeer(p.rank, from, p.size); err != nil {
		return nil, err
	}
	pr, err := p.engine.Post(from, tag, b)
	if err != nil {
		return nil, err
	}
	return p.engine.Request(pr, from, tag, time.Duration(p.opTimeout.Load())), nil
}

func (p *Proc) Recv(from int, tag comm.Tag, b []byte) (int, error) {
	if err := comm.CheckPeer(p.rank, from, p.size); err != nil {
		return 0, err
	}
	return p.engine.Recv(from, tag, b, time.Duration(p.opTimeout.Load()))
}

// SendRecv implements comm.SendRecver: the engine's receive-first
// exchange. Send blocks until the whole payload has streamed through the
// pair's ring, so only a receive posted before it lets the partner's
// payload stream straight into recvBuf meanwhile.
func (p *Proc) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	if err := comm.CheckPeer(p.rank, from, p.size); err != nil {
		return 0, err
	}
	return p.engine.Exchange(from, tag, recvBuf, time.Duration(p.opTimeout.Load()), func() error {
		return p.Send(to, tag, sendBuf)
	})
}

// DeliveryStats reports how this rank's inbound messages reached their
// receives (see match.Engine.DeliveryStats).
func (p *Proc) DeliveryStats() (inPlace, staged match.Deliveries) {
	return p.engine.DeliveryStats()
}

// readAbort is polled by a blocked payload read. readFull only invokes
// it when the ring is empty, so "peer dead and nothing published" is
// exactly the case where the remaining bytes can never arrive.
func (p *Proc) readAbort(src int) func() error {
	return func() error {
		if p.stopped.Load() {
			return comm.ErrClosed
		}
		switch atomic.LoadUint64(p.rg.slotState(src)) {
		case slotDead, slotDeparted:
			return fmt.Errorf("shm: rank %d died mid-message: %w", src, comm.ErrPeerDead)
		}
		return nil
	}
}

// readLoop drains the control ring of one source rank, demultiplexing
// frames into the matching engine. Payloads are copied exactly once:
// DeliverTo hands the posted receive's buffer straight to the ring read
// when a matching receive is already posted.
func (p *Proc) readLoop(src int) {
	defer p.wg.Done()
	ctrl := p.rg.ctrl(src, p.rank)
	big := p.rg.big(src, p.rank)
	abort := p.readAbort(src)
	var hdr [frameSize]byte
	round := 0
	for {
		if p.stopped.Load() {
			return
		}
		if ctrl.readable() < frameSize {
			// A dead or departed peer can never complete another frame
			// once the readable residue is below a header. Everything it
			// fully published has been drained — those sends were "on
			// the wire" and stay deliverable — so now the failure
			// surfaces.
			switch atomic.LoadUint64(p.rg.slotState(src)) {
			case slotDead, slotDeparted:
				p.engine.FailPeer(src, fmt.Errorf("shm: rank %d gone: %w", src, comm.ErrPeerDead))
				return
			}
			round = backoff(round)
			continue
		}
		round = 0
		if err := ctrl.readFull(hdr[:], abort); err != nil {
			p.finishPeer(src, err)
			return
		}
		tag := comm.Tag(int32(binary.LittleEndian.Uint32(hdr[0:])))
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		flags := binary.LittleEndian.Uint32(hdr[8:])
		if n > maxMsgBytes {
			p.finishPeer(src, fmt.Errorf("shm: rank %d sent corrupt frame (%d bytes): %w",
				src, n, comm.ErrPeerDead))
			return
		}
		payload := &ctrl
		if flags&flagBig != 0 {
			payload = &big
		}
		err := p.engine.DeliverTo(src, tag, n, func(dst []byte) error {
			return payload.readFull(dst, abort)
		})
		if err != nil {
			p.finishPeer(src, err)
			return
		}
	}
}

// finishPeer ends a read loop: a local close just exits (the engine is
// already poisoned with ErrClosed); anything else fences the source.
func (p *Proc) finishPeer(src int, err error) {
	if p.stopped.Load() {
		return
	}
	p.engine.FailPeer(src, err)
}

// monitor publishes this rank's heartbeat and watches peers for silent
// death: a peer whose state says attached but whose heartbeat counter
// stands still past the suspicion window is declared dead with a CAS on
// its state word — first noticer wins, every survivor then agrees.
// Explicit state transitions (Kill, clean Close) are noticed by the
// read loops themselves, after they drain what was already published.
func (p *Proc) monitor() {
	defer p.wg.Done()
	lastHB := make([]uint64, p.size)
	lastBeat := make([]time.Time, p.size)
	ticker := time.NewTicker(p.hb)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		if !p.mute.Load() {
			atomic.AddUint64(p.rg.slotHB(p.rank), 1)
		}
		now := time.Now()
		for r := 0; r < p.size; r++ {
			if r == p.rank {
				continue
			}
			if atomic.LoadUint64(p.rg.slotState(r)) != slotAttached {
				lastBeat[r] = time.Time{} // restart the clock if it ever attaches
				continue
			}
			hb := atomic.LoadUint64(p.rg.slotHB(r))
			if lastBeat[r].IsZero() || hb != lastHB[r] {
				lastHB[r] = hb
				lastBeat[r] = now
				continue
			}
			if now.Sub(lastBeat[r]) > p.suspect {
				// Declared dead for everyone; this rank's read loop
				// notices the state change, drains, and fences.
				atomic.CompareAndSwapUint64(p.rg.slotState(r), slotAttached, slotDead)
			}
		}
	}
}

// shutdown moves this rank's slot to the given terminal state (unless a
// peer already declared it dead), poisons the engine, and stops the
// goroutines. Idempotent.
func (p *Proc) shutdown(state uint64) {
	p.closeOnce.Do(func() {
		atomic.CompareAndSwapUint64(p.rg.slotState(p.rank), slotAttached, state)
		p.stopped.Store(true)
		close(p.stop)
		p.engine.Fail(comm.ErrClosed)
		p.wg.Wait()
		if p.ownRg {
			p.rg.close()
		}
	})
}

// Close leaves the world cleanly: peers drain everything this rank
// published, then see ErrPeerDead.
func (p *Proc) Close() error {
	p.shutdown(slotDeparted)
	return nil
}

// Kill simulates a fail-stop crash: the slot goes dead immediately, and
// in-flight publishes are abandoned where they stand — peers drain what
// was fully framed and fence the rest, exactly like a real process death
// caught by the heartbeat monitor (just promptly).
func (p *Proc) Kill() {
	p.shutdown(slotDead)
}

// Create initializes a region file for a p-rank world. The launcher
// calls it once before spawning ranks; ranks then Attach. The file must
// not already exist (a stale region would alias live cursors).
func Create(path string, p int, opts Options) error {
	if p < 1 {
		return fmt.Errorf("shm: world size %d", p)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("shm: create region: %w", err)
	}
	defer f.Close()
	if err := initFile(f, opts.geometry(p)); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// Attach joins rank `rank` of the p-rank world whose region lives at
// path, waiting (bounded by Options.Timeout) for the file to be created
// and — unless NoWait — for all ranks to arrive.
func Attach(path string, rank, p int, opts Options) (*Proc, error) {
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("shm: rank %d outside world of %d", rank, p)
	}
	deadline := time.Now().Add(opts.timeout())
	var rg *region
	for {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err == nil {
			rg, err = mapFile(f, p)
			f.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shm: region %s not ready: %v", path, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	pr, err := newProc(rg, rank, opts, true)
	if err != nil {
		rg.close()
		return nil, err
	}
	if !opts.NoWait {
		if err := pr.waitAllAttached(deadline); err != nil {
			pr.Close()
			return nil, err
		}
	}
	return pr, nil
}

// waitAllAttached blocks until every slot has left the empty state.
func (p *Proc) waitAllAttached(deadline time.Time) error {
	for r := 0; r < p.size; r++ {
		for atomic.LoadUint64(p.rg.slotState(r)) == slotEmpty {
			if time.Now().After(deadline) {
				return fmt.Errorf("shm: rank %d never attached: %w", r, comm.ErrTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// DefaultPath returns a region path under /dev/shm when available
// (memory-backed on Linux), falling back to the OS temp dir.
func DefaultPath(name string) string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return filepath.Join("/dev/shm", name)
	}
	return filepath.Join(os.TempDir(), name)
}
