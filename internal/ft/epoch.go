package ft

import (
	"sync/atomic"

	"exacoll/internal/comm"
)

// EpochComm translates blocking-collective tags into the current epoch's
// tag window. Epoch 0 is the native family range [TagCollBase,
// TagCollBase+FTEpochStride); after each agreed-failed collective the
// epoch advances and family tag t re-homes to
//
//	TagFTEpochBase + ((e-1) mod FTEpochs)·FTEpochStride + (t − TagCollBase)
//
// so stragglers of the failed collective — messages already sent when the
// world agreed to abort — can never match the receives of a later
// collective. Tags outside the family range (user point-to-point,
// nonblocking-collective epochs, FT agreement traffic) pass through
// unchanged, as does every capability (comm.Forward) — PurgeTags included:
// callers purge concrete windows from EpochWindow.
type EpochComm struct {
	comm.Forward
	epoch atomic.Int64
}

// NewEpochComm wraps c starting at the given epoch (non-zero when a
// shrunken session inherits its parent's tag-space position).
func NewEpochComm(c comm.Comm, epoch int64) *EpochComm {
	ec := &EpochComm{Forward: comm.NewForward(c)}
	ec.epoch.Store(epoch)
	return ec
}

// Epoch returns the current collective epoch.
func (ec *EpochComm) Epoch() int64 { return ec.epoch.Load() }

// SetEpoch moves the collective tag window (called between collectives by
// the FT state machine; concurrent in-flight nonblocking traffic is
// unaffected because nbc tags are never translated).
func (ec *EpochComm) SetEpoch(e int64) { ec.epoch.Store(e) }

// EpochWindow returns the tag window [lo, hi) used by epoch e.
func EpochWindow(e int64) (lo, hi comm.Tag) {
	if e == 0 {
		return comm.TagCollBase, comm.TagCollBase + comm.FTEpochStride
	}
	lo = comm.TagFTEpochBase + comm.Tag((e-1)%comm.FTEpochs)*comm.FTEpochStride
	return lo, lo + comm.FTEpochStride
}

func (ec *EpochComm) xlate(t comm.Tag) comm.Tag {
	e := ec.epoch.Load()
	if e == 0 || t < comm.TagCollBase || t >= comm.TagCollBase+comm.FTEpochStride {
		return t
	}
	lo, _ := EpochWindow(e)
	return lo + (t - comm.TagCollBase)
}

// Send implements comm.Comm.
func (ec *EpochComm) Send(to int, tag comm.Tag, buf []byte) error {
	return ec.Unwrap().Send(to, ec.xlate(tag), buf)
}

// Recv implements comm.Comm.
func (ec *EpochComm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	return ec.Unwrap().Recv(from, ec.xlate(tag), buf)
}

// SendRecv implements comm.SendRecver.
func (ec *EpochComm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	return comm.SendRecv(ec.Unwrap(), to, sendBuf, from, recvBuf, ec.xlate(tag))
}

// Isend implements comm.Comm.
func (ec *EpochComm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return ec.Unwrap().Isend(to, ec.xlate(tag), buf)
}

// Irecv implements comm.Comm.
func (ec *EpochComm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return ec.Unwrap().Irecv(from, ec.xlate(tag), buf)
}
