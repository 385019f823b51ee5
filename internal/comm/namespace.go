package comm

import "fmt"

// nsPiece maps one source tag range of the standard session layout into an
// offset inside a namespace window. A non-zero mod folds the (larger)
// source range into a mod-wide destination region: (t−srcLo) mod mod.
type nsPiece struct {
	srcLo, srcHi Tag
	dst          Tag // offset inside the window
	mod          Tag // 0 = direct (srcHi−srcLo wide), else folded
}

// width returns the destination width of the piece.
func (p nsPiece) width() Tag {
	if p.mod != 0 {
		return p.mod
	}
	return p.srcHi - p.srcLo
}

// nsPieces is the compact in-window layout of one session tag space. The
// pieces tile the window in ascending destination order; their total width
// must stay below NamespaceStride (checked by TestNamespaceLayout).
//
// Only the fault-tolerance epoch region is folded (FTEpochs → 64 windows):
// epochs are strictly sequential and each retired window is purged at the
// advance that retires it, so two live windows 64 epochs apart cannot
// coexist. Every other range maps 1:1, preserving all engine invariants
// (the nbc allocator's 4096-epoch wraparound guard in particular).
var nsPieces = buildNSPieces()

func buildNSPieces() []nsPiece {
	pieces := []nsPiece{
		{srcLo: TagUser, srcHi: TagUser + NamespaceUserTags},                                  // application p2p
		{srcLo: TagCollBase, srcHi: TagCollBase + FTEpochStride},                              // blocking families (epoch-0 window)
		{srcLo: TagNBCBase, srcHi: TagFTBase},                                                 // nonblocking epochs, full width
		{srcLo: TagFTBase, srcHi: TagFTEpochBase},                                             // ft agreement sequences
		{srcLo: TagFTEpochBase, srcHi: TagFlightBase, mod: NamespaceFTEpochs * FTEpochStride}, // ft epoch windows, folded
		{srcLo: TagFlightBase, srcHi: TagFlightBase + FlightTagWidth},                         // flight collection window
	}
	var off Tag
	for i := range pieces {
		pieces[i].dst = off
		off += pieces[i].width()
	}
	if off > NamespaceStride {
		panic("comm: namespace layout exceeds NamespaceStride")
	}
	return pieces
}

// NamespaceWindow returns the concrete tag window [lo, hi) owned by a
// namespace slot on the shared transport. Purging it (Purger.PurgeTags)
// quiesces every message the slot's session could ever have in flight —
// the fence the service layer applies before recycling a slot.
func NamespaceWindow(slot int) (lo, hi Tag) {
	lo = NamespaceBase + Tag(slot)*NamespaceStride
	return lo, lo + NamespaceStride
}

// Namespace presents a private copy of the full session tag space on top
// of a shared communicator: every tag a session can use — application
// point-to-point, blocking-collective families, nonblocking-collective
// epochs, fault-tolerance agreement and epoch windows, flight collection —
// is translated into the slot's disjoint NamespaceStride-wide window. Two
// sessions in different slots share the transport's connections (and, for
// TCP, its sockets) but can never match each other's messages.
//
// Capabilities come from the embedded Forward; the two that speak in tags
// (PurgeTags, SendRecv) are translated here. The handle given to
// NewNamespace should carry per-handle deadlines (mem handles and tcp pool
// handles do): a shared-transport-wide SetOpTimeout would let one tenant's
// timeout choice leak into its cotenants.
type Namespace struct {
	Forward
	slot int
	base Tag
}

// NewNamespace wraps c in namespace slot (0 <= slot < NamespaceSlots).
// Every rank of one logical session must use the same slot, and two
// concurrent sessions sharing a transport must use different slots.
func NewNamespace(c Comm, slot int) (*Namespace, error) {
	if slot < 0 || slot >= NamespaceSlots {
		return nil, fmt.Errorf("comm: namespace slot %d out of range [0,%d)", slot, NamespaceSlots)
	}
	return &Namespace{Forward: NewForward(c), slot: slot, base: NamespaceBase + Tag(slot)*NamespaceStride}, nil
}

// Slot returns the namespace slot index.
func (n *Namespace) Slot() int { return n.slot }

// Window returns the concrete window [lo, hi) this namespace occupies on
// the shared transport.
func (n *Namespace) Window() (lo, hi Tag) { return NamespaceWindow(n.slot) }

// xlate maps a session-layout tag into the slot's window.
func (n *Namespace) xlate(t Tag) (Tag, error) {
	for _, p := range nsPieces {
		if t >= p.srcLo && t < p.srcHi {
			off := t - p.srcLo
			if p.mod != 0 {
				off %= p.mod
			}
			return n.base + p.dst + off, nil
		}
	}
	return 0, fmt.Errorf("comm: tag %d outside the namespaced session layout (user tags must be < %d)", t, NamespaceUserTags)
}

// Send implements Comm.
func (n *Namespace) Send(to int, tag Tag, buf []byte) error {
	t, err := n.xlate(tag)
	if err != nil {
		return err
	}
	return n.inner.Send(to, t, buf)
}

// Recv implements Comm.
func (n *Namespace) Recv(from int, tag Tag, buf []byte) (int, error) {
	t, err := n.xlate(tag)
	if err != nil {
		return 0, err
	}
	return n.inner.Recv(from, t, buf)
}

// Isend implements Comm.
func (n *Namespace) Isend(to int, tag Tag, buf []byte) (Request, error) {
	t, err := n.xlate(tag)
	if err != nil {
		return nil, err
	}
	return n.inner.Isend(to, t, buf)
}

// Irecv implements Comm.
func (n *Namespace) Irecv(from int, tag Tag, buf []byte) (Request, error) {
	t, err := n.xlate(tag)
	if err != nil {
		return nil, err
	}
	return n.inner.Irecv(from, t, buf)
}

// SendRecv implements SendRecver: the tag translated, then the shared
// transport's exchange (its native one when it has one).
func (n *Namespace) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag Tag) (int, error) {
	t, err := n.xlate(tag)
	if err != nil {
		return 0, err
	}
	return SendRecv(n.inner, to, sendBuf, from, recvBuf, t)
}

// PurgeTags implements Purger with window translation: the session-layout
// range [lo, hi) is intersected with each layout piece and each
// intersection purged inside the slot's window, splitting folded pieces at
// the wrap point. The fault-tolerance quiesce therefore works identically
// through a namespace, touching only this slot's region of the shared
// transport.
func (n *Namespace) PurgeTags(lo, hi Tag) {
	p := n.purger
	if p == nil {
		return
	}
	for _, pc := range nsPieces {
		l, h := lo, hi
		if l < pc.srcLo {
			l = pc.srcLo
		}
		if h > pc.srcHi {
			h = pc.srcHi
		}
		if l >= h {
			continue
		}
		base := n.base + pc.dst
		if pc.mod == 0 {
			p.PurgeTags(base+(l-pc.srcLo), base+(h-pc.srcLo))
			continue
		}
		if h-l >= pc.mod {
			// The range covers the whole folded region.
			p.PurgeTags(base, base+pc.mod)
			continue
		}
		start := (l - pc.srcLo) % pc.mod
		end := start + (h - l)
		if end <= pc.mod {
			p.PurgeTags(base+start, base+end)
		} else {
			// The folded range wraps: purge both arcs.
			p.PurgeTags(base+start, base+pc.mod)
			p.PurgeTags(base, base+(end-pc.mod))
		}
	}
}
