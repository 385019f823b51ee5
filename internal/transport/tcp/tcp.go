// Package tcp implements comm.Comm across OS processes connected by TCP —
// the multi-process substrate behind cmd/gcarun. Rank 0 listens; every
// other rank dials it, learns the full address list, then the ranks build
// a full mesh (rank i dials rank j for i > j). Messages are framed as
// (src, tag, length, payload) and demultiplexed into the same
// (source, tag) FIFO matching engine semantics as the in-memory transport.
//
// Fault tolerance: after rendezvous every connection carries periodic
// heartbeat frames, and a per-peer liveness monitor marks a silent peer
// dead (comm.ErrPeerDead) — so a crashed rank is detected even when no
// data traffic touches it. Per-operation deadlines (comm.Deadliner) bound
// every blocking Send and Recv, surfacing comm.ErrTimeout instead of
// hanging on a dead or wedged peer; before this, connections cleared
// their deadlines after rendezvous and a crashed peer could block
// Send/Recv forever.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	scratch "exacoll/internal/buf"
	"exacoll/internal/comm"
	"exacoll/internal/transport/match"
)

// frame header: src(4) tag(4) len(4).
const headerSize = 12

// wire protocol version for the rendezvous handshake. Version 3 re-keys
// rendezvous by epoch: the hello carries a kind (world-member vs join
// request) and the epoch the dialer wants to rendezvous at, and every
// reply starts with a status word — the pieces elastic membership needs
// (see anchor.go).
const protoVersion = 3

// hbTag is the reserved tag value of a heartbeat frame (never a valid
// comm.Tag, which is non-negative in practice: collective and user tags
// are all >= 0).
const hbTag = ^uint32(0)

// Options configures Dial/Listen.
type Options struct {
	// Timeout bounds the whole rendezvous (default 30s).
	Timeout time.Duration
	// Heartbeat is the interval between liveness frames on every
	// connection. 0 selects the default (500ms); a negative value
	// disables heartbeats and the liveness monitor entirely.
	Heartbeat time.Duration
	// SuspectAfter is how long a peer may stay silent (no data frames, no
	// heartbeats) before the monitor declares it dead. 0 selects the
	// default (4 × Heartbeat). Ignored when heartbeats are disabled.
	SuspectAfter time.Duration
	// Epoch keys the rendezvous: every member of one world formation must
	// present the same epoch, and an Anchor parks hellos per epoch so the
	// worlds of successive membership changes can never mix (a straggling
	// dial from a retired epoch is answered with a wrong-epoch status
	// instead of wedging the mesh). 0 — the default — is the first world.
	Epoch uint64
	// AdmitDeadline bounds how long a world hello may stay parked at an
	// anchor before it is bounced with a retryable status (the admitted
	// joiner whose formation never ran, the survivor of an aborted
	// transition). 0 selects the default (2 × Timeout); a negative value
	// disables the deadline. Epochs with a formation in flight are exempt.
	AdmitDeadline time.Duration
	// Hook, when non-nil, is consulted at every rendezvous/join/admission
	// protocol boundary before the step executes; a non-nil return aborts
	// the step with that error. The chaos layer's injection point —
	// production configurations leave it nil.
	Hook FaultHook
	// Dialer replaces net.DialTimeout for every outbound rendezvous and
	// mesh dial, so connection-level fault injectors (transport/faulty's
	// Net) can refuse, reset, partition, or throttle real TCP links.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Stripes opens N parallel connections per peer and stripes large
	// sends across them (see tcp_stripe.go) — the multi-port NIC model of
	// the paper made concrete: aggregate bandwidth scales with connection
	// count, and Locality.Ports reports it so tuning picks k ≈ #ports.
	// 0 or 1 is the classic single-connection wire protocol; every member
	// of a world must present the same value. Clamped to 16.
	Stripes int
	// StripeThreshold is the smallest payload that is split across
	// stripes; smaller messages travel whole on stripe 0 (in order, low
	// latency). 0 selects the default (64 KiB). Only meaningful when
	// Stripes > 1.
	StripeThreshold int
	// Ports is an alias for Stripes kept for callers that think in the
	// paper's vocabulary; when both are set Stripes wins.
	Ports int
}

func (o Options) timeout() time.Duration {
	if o.Timeout == 0 {
		return 30 * time.Second
	}
	return o.Timeout
}

func (o Options) heartbeat() time.Duration {
	if o.Heartbeat == 0 {
		return 500 * time.Millisecond
	}
	if o.Heartbeat < 0 {
		return 0
	}
	return o.Heartbeat
}

func (o Options) suspectAfter() time.Duration {
	hb := o.heartbeat()
	if hb == 0 {
		return 0
	}
	if o.SuspectAfter > 0 {
		return o.SuspectAfter
	}
	return 4 * hb
}

func (o Options) admitDeadline() time.Duration {
	if o.AdmitDeadline < 0 {
		return 0
	}
	if o.AdmitDeadline == 0 {
		return 2 * o.timeout()
	}
	return o.AdmitDeadline
}

func (o Options) stripes() int {
	s := o.Stripes
	if s < 1 {
		s = o.Ports
	}
	if s < 1 {
		return 1
	}
	if s > 16 {
		return 16
	}
	return s
}

func (o Options) stripeThreshold() int {
	if o.StripeThreshold > 0 {
		return o.StripeThreshold
	}
	return 64 << 10
}

// Proc is one rank's endpoint in a TCP world. It implements comm.Comm,
// comm.Deadliner, comm.FailureDetector, and comm.Purger.
type Proc struct {
	rank  int
	size  int
	conns []net.Conn // conns[peer] (stripe 0), nil at self

	engine *match.Engine

	sendMu []sync.Mutex // per-peer stripe-0 write locks

	// Striping state (tcp_stripe.go); empty when stripes == 1.
	stripes     int
	stripeThres int
	sconns      [][]net.Conn   // sconns[peer][s-1] is stripe s of a peer
	ssendMu     [][]sync.Mutex // matching write locks
	txSeq       []atomic.Uint32
	rx          []rxReasm

	opTimeout atomic.Int64   // per-op deadline in nanoseconds; 0 = unbounded
	lastSeen  []atomic.Int64 // unix nanos of the last frame from each peer
	hbStop    chan struct{}
	hbWG      sync.WaitGroup

	// Host-keyed locality, derived once during rendezvous from the same
	// address list every rank already receives (no extra wire traffic):
	// ranks whose mesh listeners share a host string share a node.
	nodeOf  []int        // rank -> node id (first-appearance order), nil if unknown
	localOf []int        // rank -> index among its host's ranks
	ppn     int          // max ranks per host
	synPPN  atomic.Int64 // SetLocality override: contiguous blocks of ppn
	synPort atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// newProc allocates an unconnected endpoint of a p-rank world.
func newProc(rank, p int, opts Options) *Proc {
	pr := &Proc{
		rank:        rank,
		size:        p,
		conns:       make([]net.Conn, p),
		engine:      match.New(),
		sendMu:      make([]sync.Mutex, p),
		stripes:     opts.stripes(),
		stripeThres: opts.stripeThreshold(),
		lastSeen:    make([]atomic.Int64, p),
		hbStop:      make(chan struct{}),
	}
	if p == 1 {
		pr.stripes = 1
	}
	if pr.stripes > 1 {
		pr.sconns = make([][]net.Conn, p)
		pr.ssendMu = make([][]sync.Mutex, p)
		pr.txSeq = make([]atomic.Uint32, p)
		pr.rx = make([]rxReasm, p)
		for peer := 0; peer < p; peer++ {
			if peer == rank {
				continue
			}
			pr.sconns[peer] = make([]net.Conn, pr.stripes-1)
			pr.ssendMu[peer] = make([]sync.Mutex, pr.stripes-1)
			pr.rx[peer].pend = make(map[uint32]*pendMsg)
		}
	}
	return pr
}

// startLoops launches the demultiplexing readers and the liveness
// machinery once every mesh connection is in place.
func (p *Proc) startLoops(opts Options) {
	now := time.Now().UnixNano()
	for peer, conn := range p.conns {
		if conn == nil {
			continue
		}
		p.lastSeen[peer].Store(now)
		if p.stripes > 1 {
			go p.readLoopStriped(peer, conn)
			for _, sc := range p.sconns[peer] {
				go p.readLoopStriped(peer, sc)
			}
		} else {
			go p.readLoop(peer, conn)
		}
	}
	if hb := opts.heartbeat(); hb > 0 {
		p.hbWG.Add(2)
		go p.heartbeatLoop(hb)
		go p.monitorLoop(hb, opts.suspectAfter())
	}
}

// Rendezvous establishes the world. Rank 0 must call with listenAddr
// (e.g. "127.0.0.1:7777"); other ranks pass the same address they dial.
// Every rank must know p and its own rank (as mpirun would provide), and
// all ranks must present the same opts.Epoch.
//
// Rank 0's listener lives only for this one formation. A long-lived
// coordinator that can also field join requests between formations — what
// elastic membership needs — is an Anchor (NewAnchor + Anchor.Rendezvous),
// which this function wraps for the one-shot case.
func Rendezvous(rank, p int, addr string, opts Options) (*Proc, error) {
	if p < 1 || rank < 0 || rank >= p {
		return nil, fmt.Errorf("tcp: bad rank/size %d/%d", rank, p)
	}
	if rank == 0 {
		if p == 1 {
			proc := newProc(0, 1, opts)
			proc.keyHosts([]string{hostOf(addr)})
			return proc, nil
		}
		a, err := NewAnchor(addr, 0, opts)
		if err != nil {
			return nil, err
		}
		defer a.Close()
		return a.Rendezvous(p, opts.Epoch)
	}
	proc := newProc(rank, p, opts)
	if err := proc.join(addr, opts, time.Now().Add(opts.timeout())); err != nil {
		proc.closeConns()
		return nil, err
	}
	proc.startLoops(opts)
	return proc, nil
}

// closeConns tears down whatever connections a failed join left behind,
// so an aborted formation leaks no sockets.
func (p *Proc) closeConns() {
	for _, c := range p.conns {
		if c != nil {
			c.Close()
		}
	}
	for _, scs := range p.sconns {
		for _, c := range scs {
			if c != nil {
				c.Close()
			}
		}
	}
}

// join is a non-zero rank's rendezvous: open a mesh listener, dial the
// coordinator, send a world hello (version, kind, rank, epoch, mesh
// address), read the status + address list, then dial every lower-ranked
// peer and accept every higher-ranked one. Every dial backs off with
// jitter until the deadline, and every protocol boundary consults the
// fault hook, so a chaos sweep can fail the formation at any point.
func (p *Proc) join(addr string, opts Options, deadline time.Time) error {
	epoch := opts.Epoch
	// The coordinator handshake retries through connection-level failure
	// (handshake drops, resets before the address list) until the
	// deadline: a redial re-parks an identical hello and the anchor's
	// dup-replace keeps that idempotent. Protocol answers — wrong-epoch,
	// busy, bounce — and injected hook faults return immediately.
	var conn0 net.Conn
	var mesh net.Listener
	var addrs []string
	var stripe0Addr string
	for attempt := 0; ; attempt++ {
		if err := opts.step("rv.dial", epoch, p.rank, 0); err != nil {
			return err
		}
		c, err := opts.dialRetry(addr, deadline)
		if err != nil {
			return fmt.Errorf("tcp: dial rank 0: %w", err)
		}
		// Bind the mesh listener on the interface that reaches rank 0, so
		// the advertised address works across hosts and carries the host
		// string that locality keying groups ranks by (on one host this is
		// the loopback address, exactly as before).
		if mesh == nil {
			mesh, err = net.Listen("tcp", net.JoinHostPort(hostOf(c.LocalAddr().String()), "0"))
			if err != nil {
				c.Close()
				return fmt.Errorf("tcp: mesh listen: %w", err)
			}
			defer mesh.Close()
		}
		addrs, stripe0Addr, err = p.anchorHandshake(c, mesh.Addr().String(), opts, deadline)
		if err == nil {
			conn0 = c
			break
		}
		c.Close()
		if isHookErr(err) || errors.Is(err, ErrWrongEpoch) ||
			errors.Is(err, ErrBusy) || errors.Is(err, ErrBounced) {
			return err
		}
		if time.Until(deadline) <= 0 {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// Parked at the anchor until the formation deadline ran out:
				// the formation stalled on some other rank (which is failing
				// its own rendezvous) and the anchor is aborting this epoch.
				// Transient — the caller retries the membership change.
				return fmt.Errorf("%w: rendezvous reply: %v", comm.ErrTimeout, err)
			}
			return err
		}
		if d := backoffDelay(attempt); d > 0 {
			time.Sleep(d)
		}
	}
	p.conns[0] = conn0

	// Mesh: dial lower ranks (1..rank-1), accept higher ranks. Each mesh
	// connection starts with the dialer's rank (4 bytes) — or, when the
	// world stripes, (rank, stripe) as 8 bytes, and each peer pair builds
	// one connection per stripe. A duplicate dial from a (rank, stripe)
	// that is already connected replaces the earlier connection (the
	// dialer gave up on it — keeping the stale socket would wedge the
	// mesh), so reconnect during formation is idempotent.
	var wg sync.WaitGroup
	var acceptErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for remaining := (p.size - 1 - p.rank) * p.stripes; remaining > 0; {
			if tl, ok := mesh.(*net.TCPListener); ok {
				tl.SetDeadline(deadline)
			}
			if err := opts.step("rv.mesh.accept", epoch, p.rank, -1); err != nil {
				acceptErr = err
				return
			}
			conn, err := mesh.Accept()
			if err != nil {
				acceptErr = err
				return
			}
			conn.SetDeadline(deadline)
			r, s, err := p.readMeshHello(conn)
			if err != nil {
				// An inbound connection that died before delivering its rank
				// header (a handshake-dropped or reset dial) is the dialer's
				// problem — it will redial. Keep accepting.
				conn.Close()
				continue
			}
			if r <= p.rank || r >= p.size || s < 0 || s >= p.stripes {
				acceptErr = fmt.Errorf("tcp: bad mesh dialer rank %d stripe %d", r, s)
				conn.Close()
				return
			}
			slot := p.stripeSlot(r, s)
			if old := *slot; old != nil {
				old.Close()
			} else {
				remaining--
			}
			conn.SetDeadline(time.Time{})
			*slot = conn
		}
	}()
	// On any dial-side failure the accept goroutine must be stopped before
	// returning — it writes p.conns, which the caller tears down on error.
	// Closing the listener wakes Accept; a conn mid-header is bounded by its
	// own deadline.
	meshFail := func(err error) error {
		mesh.Close()
		wg.Wait()
		return err
	}
	for r := 1; r < p.rank; r++ {
		if err := opts.step("rv.mesh.dial", epoch, p.rank, r); err != nil {
			return meshFail(err)
		}
		for s := 0; s < p.stripes; s++ {
			if err := p.dialMeshStripe(addrs[r], r, s, opts, deadline); err != nil {
				return meshFail(err)
			}
		}
	}
	// Extra stripes to rank 0 dial its dedicated stripe listener (the
	// stripe-0 connection to rank 0 is the rendezvous connection itself).
	for s := 1; s < p.stripes; s++ {
		if err := p.dialMeshStripe(stripe0Addr, 0, s, opts, deadline); err != nil {
			return meshFail(err)
		}
	}
	wg.Wait()
	if acceptErr != nil {
		var nerr net.Error
		if errors.As(acceptErr, &nerr) && nerr.Timeout() {
			// A higher rank never dialed in before the deadline: the
			// formation is transient roadkill (that rank is failing its own
			// rendezvous), so classify it as a timeout the caller may retry.
			return fmt.Errorf("%w: mesh accept: %v", comm.ErrTimeout, acceptErr)
		}
		return fmt.Errorf("tcp: mesh accept: %w", acceptErr)
	}
	// Key locality from the circulated address list, mirroring what the
	// anchor computes for rank 0: the mesh addresses carry every member's
	// host, and rank 0's host is the anchor address the caller dialed.
	hosts := make([]string, p.size)
	hosts[0] = hostOf(addr)
	for r := 1; r < p.size; r++ {
		hosts[r] = hostOf(addrs[r])
	}
	p.keyHosts(hosts)
	return nil
}

// anchorHandshake runs one attempt of the coordinator exchange on an
// established connection: hello out, status and address list back. When
// the world stripes, one extra address follows the list — rank 0's
// stripe listener (both sides key this on their own Options.Stripes,
// which every member of a world must agree on).
func (p *Proc) anchorHandshake(conn0 net.Conn, meshAddr string, opts Options, deadline time.Time) ([]string, string, error) {
	epoch := opts.Epoch
	conn0.SetDeadline(deadline)
	if err := opts.step("rv.hello", epoch, p.rank, 0); err != nil {
		return nil, "", err
	}
	if err := writeHello(conn0, helloWorld, p.rank, epoch, meshAddr); err != nil {
		return nil, "", fmt.Errorf("tcp: hello: %w", err)
	}
	if err := opts.step("rv.status", epoch, p.rank, 0); err != nil {
		return nil, "", err
	}
	if err := readStatus(conn0, epoch); err != nil {
		return nil, "", err
	}
	if err := opts.step("rv.addrs", epoch, p.rank, 0); err != nil {
		return nil, "", err
	}
	readAddr := func() (string, error) {
		var l [4]byte
		if _, err := io.ReadFull(conn0, l[:]); err != nil {
			return "", fmt.Errorf("tcp: address list: %w", err)
		}
		ab := make([]byte, binary.LittleEndian.Uint32(l[:]))
		if _, err := io.ReadFull(conn0, ab); err != nil {
			return "", fmt.Errorf("tcp: address list: %w", err)
		}
		return string(ab), nil
	}
	addrs := make([]string, p.size) // addrs[0] unused
	for r := 1; r < p.size; r++ {
		a, err := readAddr()
		if err != nil {
			return nil, "", err
		}
		addrs[r] = a
	}
	var stripe0Addr string
	if p.stripes > 1 {
		a, err := readAddr()
		if err != nil {
			return nil, "", err
		}
		stripe0Addr = a
	}
	conn0.SetDeadline(time.Time{})
	return addrs, stripe0Addr, nil
}

// heartbeatLoop sends one liveness frame per interval on every connection
// until Close. Heartbeats share each connection's write lock with data
// frames, so they also double as a probe: a send-side failure surfaces as
// failPeer long before the peer's silence would.
func (p *Proc) heartbeatLoop(interval time.Duration) {
	defer p.hbWG.Done()
	// Heartbeats ride stripe 0 only; in a striped world they wear the
	// striped header (same size as data frames, tag = hbTag).
	hn := headerSize
	if p.stripes > 1 {
		hn = stripedHeaderSize
	}
	hdr := make([]byte, hn)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(p.rank))
	binary.LittleEndian.PutUint32(hdr[4:], hbTag)
	binary.LittleEndian.PutUint32(hdr[8:], 0)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.hbStop:
			return
		case <-ticker.C:
		}
		for peer := range p.conns {
			if peer == p.rank || p.engine.PeerError(peer) != nil {
				continue
			}
			p.sendMu[peer].Lock()
			conn := p.conns[peer]
			if conn != nil {
				conn.SetWriteDeadline(time.Now().Add(interval * 2))
				if _, err := conn.Write(hdr); err != nil {
					p.failPeerConn(peer, fmt.Errorf("%w: rank %d heartbeat write: %v", comm.ErrPeerDead, peer, err))
				}
			}
			p.sendMu[peer].Unlock()
		}
	}
}

// monitorLoop declares a peer dead when nothing (data or heartbeat) has
// arrived from it for suspectAfter.
func (p *Proc) monitorLoop(interval, suspectAfter time.Duration) {
	defer p.hbWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.hbStop:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for peer := range p.conns {
			if peer == p.rank || p.conns[peer] == nil || p.engine.PeerError(peer) != nil {
				continue
			}
			if now-p.lastSeen[peer].Load() > int64(suspectAfter) {
				p.failPeerConn(peer, fmt.Errorf("%w: rank %d silent for %v", comm.ErrPeerDead, peer, suspectAfter))
			}
		}
	}
}

// failPeerConn records a peer failure and closes its connections (all
// stripes — one corrupt or dead stripe condemns the peer) so any reader
// or writer blocked on them wakes immediately.
func (p *Proc) failPeerConn(peer int, err error) {
	p.engine.FailPeer(peer, err)
	if conn := p.conns[peer]; conn != nil {
		conn.Close()
	}
	if p.sconns != nil {
		for _, sc := range p.sconns[peer] {
			if sc != nil {
				sc.Close()
			}
		}
	}
}

// readLoop demultiplexes inbound frames from one peer into the matching
// engine. A payload whose receive is already posted is read off the socket
// straight into that receive's buffer (match.Engine.DeliverTo).
func (p *Proc) readLoop(peer int, conn net.Conn) {
	fill := func(dst []byte) error {
		if _, err := io.ReadFull(conn, dst); err != nil {
			return peerDeadErr(peer, err)
		}
		return nil
	}
	for {
		var hdr [headerSize]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			p.engine.FailPeer(peer, peerDeadErr(peer, err))
			return
		}
		p.lastSeen[peer].Store(time.Now().UnixNano())
		src := int(binary.LittleEndian.Uint32(hdr[0:]))
		rawTag := binary.LittleEndian.Uint32(hdr[4:])
		n := int(binary.LittleEndian.Uint32(hdr[8:]))
		if rawTag == hbTag && src == peer && n == 0 {
			continue // liveness frame; lastSeen already updated
		}
		tag := comm.Tag(rawTag)
		if src != peer || n < 0 || n > 1<<30 {
			p.engine.FailPeer(peer, fmt.Errorf("tcp: bad frame from %d (src %d, len %d)", peer, src, n))
			return
		}
		if err := p.engine.DeliverTo(src, tag, n, fill); err != nil {
			p.engine.FailPeer(peer, err)
			return
		}
	}
}

// peerDeadErr classifies a connection-level read/write failure: the remote
// end of this link is gone (process exit, reset, or our monitor closed the
// socket after silence), so it reports comm.ErrPeerDead.
func peerDeadErr(peer int, err error) error {
	return fmt.Errorf("%w: rank %d connection: %v", comm.ErrPeerDead, peer, err)
}

// Rank implements comm.Comm.
func (p *Proc) Rank() int { return p.rank }

// Size implements comm.Comm.
func (p *Proc) Size() int { return p.size }

// ChargeCompute implements comm.Comm (no-op on a real transport).
func (p *Proc) ChargeCompute(int) {}

// SetOpTimeout implements comm.Deadliner: each subsequent blocking Send,
// Recv, or receive Wait is bounded by d (0 restores unbounded blocking).
func (p *Proc) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.opTimeout.Store(int64(d))
}

// Failed implements comm.FailureDetector: peers whose connection dropped,
// whose heartbeats stopped, or that sent garbage, in ascending order.
func (p *Proc) Failed() []int {
	return p.engine.FailedPeers()
}

// PurgeTags implements comm.Purger.
func (p *Proc) PurgeTags(lo, hi comm.Tag) { p.engine.PurgeTags(lo, hi) }

// hostOf extracts the host part of a listen address, falling back to the
// whole string when it has no port (so equal strings still key together).
func hostOf(s string) string {
	host, _, err := net.SplitHostPort(s)
	if err != nil {
		return s
	}
	return host
}

// keyHosts derives the locality tables from the per-rank host strings that
// rendezvous already circulates: node ids in first-appearance order, local
// ranks by ascending world rank within a host, and PPN as the maximum
// ranks on any host. Every rank computes the same tables from the same
// list, so no extra agreement round is needed.
func (p *Proc) keyHosts(hosts []string) {
	nodeID := make(map[string]int)
	count := make(map[string]int)
	p.nodeOf = make([]int, len(hosts))
	p.localOf = make([]int, len(hosts))
	p.ppn = 0
	for r, h := range hosts {
		id, ok := nodeID[h]
		if !ok {
			id = len(nodeID)
			nodeID[h] = id
		}
		p.nodeOf[r] = id
		p.localOf[r] = count[h]
		count[h]++
		if count[h] > p.ppn {
			p.ppn = count[h]
		}
	}
}

// SetLocality overrides host-keyed locality with a synthetic contiguous
// layout (ranks [i*ppn, (i+1)*ppn) share node i) — the single-host analogue
// of launching one rank block per node, for exercising hierarchical
// collectives when every process really lives on one machine. ppn < 1
// withdraws the override and restores host-keyed data.
func (p *Proc) SetLocality(ppn, ports int) {
	if ppn < 1 {
		ppn = 0
	}
	p.synPPN.Store(int64(ppn))
	p.synPort.Store(int64(ports))
}

// Locality implements comm.Locator. A synthetic SetLocality override wins;
// otherwise the host-keyed tables derived during rendezvous answer. Ports
// is unknown to this transport unless the override supplies it.
func (p *Proc) Locality(rank int) (comm.Locality, bool) {
	if rank < 0 || rank >= p.size {
		return comm.Locality{}, false
	}
	// A synthetic SetLocality port count wins; otherwise a striped world
	// reports its stripe count — the transport's real parallel-connection
	// fan-out, which is exactly what the tuning model means by "ports".
	ports := int(p.synPort.Load())
	if ports == 0 && p.stripes > 1 {
		ports = p.stripes
	}
	if ppn := int(p.synPPN.Load()); ppn >= 1 {
		if ppn > p.size {
			ppn = p.size
		}
		return comm.Locality{
			Node:      rank / ppn,
			LocalRank: rank % ppn,
			PPN:       ppn,
			Ports:     ports,
		}, true
	}
	if p.nodeOf == nil {
		return comm.Locality{}, false
	}
	return comm.Locality{
		Node:      p.nodeOf[rank],
		LocalRank: p.localOf[rank],
		PPN:       p.ppn,
		Ports:     ports,
	}, true
}

// coalesceMax bounds the payload size that Send folds into the header's
// frame buffer: one pooled copy trades for one fewer socket write, which
// wins on the latency-bound small-message path and loses past tens of KiB.
const coalesceMax = 16 << 10

// Send implements comm.Comm. With a per-op timeout configured the socket
// write is bounded: a peer that stopped draining (dead but connection
// half-open, kernel buffer full) surfaces comm.ErrTimeout instead of
// blocking forever. The frame header (and, for small messages, the
// payload) is staged in a pooled buffer; the write is synchronous, so the
// buffer is quiescent on every return path.
func (p *Proc) Send(to int, tag comm.Tag, buf []byte) error {
	return p.send(to, tag, buf, time.Duration(p.opTimeout.Load()))
}

// send is Send with the deadline made explicit, so pooled handles
// (Shared) can carry per-handle timeouts over one shared Proc.
func (p *Proc) send(to int, tag comm.Tag, buf []byte, d time.Duration) error {
	if err := comm.CheckPeer(p.rank, to, p.size); err != nil {
		return err
	}
	if p.stripes > 1 {
		return p.sendStriped(to, tag, buf, d)
	}
	fn := headerSize
	if len(buf) <= coalesceMax {
		fn += len(buf)
	}
	frame := scratch.Get(fn)
	defer scratch.Put(frame)
	copy(frame[headerSize:], buf)
	binary.LittleEndian.PutUint32(frame[0:], uint32(p.rank))
	binary.LittleEndian.PutUint32(frame[4:], uint32(tag))
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(buf)))
	p.sendMu[to].Lock()
	defer p.sendMu[to].Unlock()
	if err := p.engine.PeerError(to); err != nil {
		return err
	}
	conn := p.conns[to]
	if conn == nil {
		return comm.ErrClosed
	}
	if d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	} else {
		conn.SetWriteDeadline(time.Time{})
	}
	if _, err := conn.Write(frame); err != nil {
		return p.sendError(to, err)
	}
	if len(frame) == headerSize && len(buf) > 0 {
		if _, err := conn.Write(buf); err != nil {
			return p.sendError(to, err)
		}
	}
	return nil
}

// sendError classifies a failed frame write. The frame may be partially
// written, so the connection's stream is corrupt either way: the peer is
// marked failed and its connections closed.
func (p *Proc) sendError(to int, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		err = fmt.Errorf("%w: send to rank %d: %v", comm.ErrTimeout, to, err)
	} else {
		err = fmt.Errorf("%w: send to rank %d: %v", comm.ErrPeerDead, to, err)
	}
	p.failPeerConn(to, err)
	return err
}

// Isend implements comm.Comm. The write happens synchronously (kernel
// socket buffers provide the eager behaviour), so the returned request is
// the shared already-complete one.
func (p *Proc) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return p.isend(to, tag, buf, time.Duration(p.opTimeout.Load()))
}

func (p *Proc) isend(to int, tag comm.Tag, buf []byte, d time.Duration) (comm.Request, error) {
	if err := p.send(to, tag, buf, d); err != nil {
		return nil, err
	}
	return match.Sent, nil
}

// Irecv implements comm.Comm.
func (p *Proc) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return p.irecv(from, tag, buf, time.Duration(p.opTimeout.Load()))
}

// irecv is Irecv with the per-op deadline made explicit (captured at post
// time, exactly as Irecv captures the Proc-wide one).
func (p *Proc) irecv(from int, tag comm.Tag, buf []byte, d time.Duration) (comm.Request, error) {
	if err := comm.CheckPeer(p.rank, from, p.size); err != nil {
		return nil, err
	}
	pr, err := p.engine.Post(from, tag, buf)
	if err != nil {
		return nil, err
	}
	return p.engine.Request(pr, from, tag, d), nil
}

// Recv implements comm.Comm.
func (p *Proc) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	return p.recv(from, tag, buf, time.Duration(p.opTimeout.Load()))
}

func (p *Proc) recv(from int, tag comm.Tag, buf []byte, d time.Duration) (int, error) {
	if err := comm.CheckPeer(p.rank, from, p.size); err != nil {
		return 0, err
	}
	return p.engine.Recv(from, tag, buf, d)
}

// SendRecv implements comm.SendRecver: the engine's receive-first exchange.
func (p *Proc) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	return p.sendRecv(to, sendBuf, from, recvBuf, tag, time.Duration(p.opTimeout.Load()))
}

func (p *Proc) sendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag, d time.Duration) (int, error) {
	if err := comm.CheckPeer(p.rank, from, p.size); err != nil {
		return 0, err
	}
	return p.engine.Exchange(from, tag, recvBuf, d, func() error {
		return p.send(to, tag, sendBuf, d)
	})
}

// DeliveryStats reports how this rank's inbound messages reached their
// receives (see match.Engine.DeliveryStats).
func (p *Proc) DeliveryStats() (inPlace, staged match.Deliveries) {
	return p.engine.DeliveryStats()
}

// Close tears down all connections (all stripes).
func (p *Proc) Close() error {
	p.closeOnce.Do(func() {
		close(p.hbStop)
		p.hbWG.Wait()
		for _, c := range p.conns {
			if c != nil {
				c.Close()
			}
		}
		for _, scs := range p.sconns {
			for _, c := range scs {
				if c != nil {
					c.Close()
				}
			}
		}
		p.engine.Fail(comm.ErrClosed)
	})
	return p.closeErr
}
