package topo

import (
	"fmt"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
	"exacoll/internal/flight"
	"exacoll/internal/machine"
	"exacoll/internal/metrics"
	"exacoll/internal/tuning"
)

// tagTopo is the tag family of the engine's inter-level point-to-point
// hops (root <-> leader handoffs). It sits above every blocking family
// base in internal/core (+0x000 .. +0xb00) and below TagNBCBase, and —
// like those families — all hops of one call share it: a rank runs at
// most one blocking collective at a time and per-(source, tag) FIFO
// ordering keeps sequential phases from cross-matching.
const tagTopo = comm.TagCollBase + 0xc00

// Config parameterizes an Engine. The zero value selects recommended
// defaults for everything.
type Config struct {
	// NodeTable selects (algorithm, k) per message size for the intranode
	// phases. Nil selects tuning.RecommendedIntra for Spec and the map's
	// PPN.
	NodeTable *tuning.Table
	// LeaderTable selects for the internode (leader) phases. Nil selects
	// tuning.Recommended for Spec at one rank per node.
	LeaderTable *tuning.Table
	// Spec is the machine the default tables are derived for; nil means
	// machine.Testbox(). Ignored when both tables are given.
	Spec *machine.Spec
	// Metrics receives per-level traffic accounting (intra- vs internode
	// sends and bytes) and per-level selection decisions. Nil disables
	// both; when nil and the communicator is metrics-instrumented, its
	// registry is used instead.
	Metrics *metrics.Registry
}

// Engine lowers collectives onto a factored communicator: one phase per
// hierarchy level, each phase running the (algorithm, radix) its level's
// tuning table selects for the phase's message size. This replaces the
// hardcoded radix-2 phases of core.AllreduceHierarchical with the full
// generalized-algorithm menu at every level.
type Engine struct {
	h    *Hierarchy
	node comm.Comm // node-level channel (levelComm-wrapped when metered)
	lead comm.Comm // leader-level channel; nil on non-leaders

	nodeTab *tuning.Table
	leadTab *tuning.Table
	reg     *metrics.Registry
	rec     *flight.RankRecorder // nil when the world carries no recorder
}

// phase brackets one hierarchy phase (node-level run, leader-level run,
// root<->leader hop) on the flight timeline; the returned func records
// the end. A no-op when no recorder rides on the communicator.
func (e *Engine) phase(label string) func() {
	if e.rec == nil {
		return func() {}
	}
	arg := flight.PackLabel(e.rec.LabelID(label))
	e.rec.Record(flight.EvPhaseBegin, -1, 0, 0, arg)
	return func() { e.rec.Record(flight.EvPhaseEnd, -1, 0, 0, arg) }
}

// NewEngine factors c by m and prepares the per-level selection state.
// Every rank of c must call NewEngine with an identical map.
func NewEngine(c comm.Comm, m *Map, cfg Config) (*Engine, error) {
	h, err := Factor(c, m)
	if err != nil {
		return nil, err
	}
	spec := machine.Testbox()
	if cfg.Spec != nil {
		spec = *cfg.Spec
	}
	e := &Engine{h: h, reg: cfg.Metrics, rec: flight.RecorderOf(c)}
	if e.reg == nil {
		e.reg = metrics.InstrumentedOf(c)
	}
	e.nodeTab = cfg.NodeTable
	if e.nodeTab == nil {
		e.nodeTab = tuning.RecommendedIntra(spec, m.PPN)
	}
	e.leadTab = cfg.LeaderTable
	if e.leadTab == nil {
		e.leadTab = tuning.Recommended(spec.WithPPN(1), m.NumNodes())
	}
	e.node = e.meter(h.Node, true)
	if h.Leaders != nil {
		e.lead = e.meter(h.Leaders, false)
	}
	return e, nil
}

// meter wraps a level sub-communicator so its sends feed the per-level
// counters and its tuned runs record decisions. Without a registry the
// sub-communicator is used bare.
func (e *Engine) meter(sub comm.Comm, intra bool) comm.Comm {
	if e.reg == nil {
		return sub
	}
	return &levelComm{Forward: comm.NewForward(sub), reg: e.reg, rank: e.h.World.Rank(), intra: intra}
}

// Hierarchy exposes the level tree the engine runs on.
func (e *Engine) Hierarchy() *Hierarchy { return e.h }

// hop moves a buffer between the root of a rooted collective and its
// node's leader over the world communicator (always intranode).
func (e *Engine) hopSend(to int, buf []byte) error {
	if err := e.h.World.Send(to, tagTopo, buf); err != nil {
		return err
	}
	if e.reg != nil {
		e.reg.HierSend(e.h.World.Rank(), true, len(buf))
	}
	return nil
}

func (e *Engine) hopRecv(from int, buf []byte) error {
	n, err := e.h.World.Recv(from, tagTopo, buf)
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("topo: hop from %d carried %d bytes, want %d", from, n, len(buf))
	}
	return nil
}

// Bcast lowers a broadcast: the root hands the payload to its node's
// leader (if it is not one itself), the leaders broadcast across nodes,
// and each leader broadcasts into its node.
func (e *Engine) Bcast(buf []byte, root int) error {
	m, me := e.h.Map, e.h.World.Rank()
	if root < 0 || root >= e.h.World.Size() {
		return fmt.Errorf("%w: bcast root %d", comm.ErrRankOutOfRange, root)
	}
	rootNode := m.NodeOf[root]
	rootLeader := m.Nodes[rootNode][0]
	if root != rootLeader {
		if me == root || me == rootLeader {
			end := e.phase("bcast root hop")
			var err error
			if me == root {
				err = e.hopSend(rootLeader, buf)
			} else {
				err = e.hopRecv(root, buf)
			}
			end()
			if err != nil {
				return err
			}
		}
	}
	if e.lead != nil && m.NumNodes() > 1 {
		// Leaders()[v] == Nodes[v][0], so the root node's id is also the
		// root's index in the leader sub-communicator.
		end := e.phase("bcast internode")
		err := e.leadTab.Run(e.lead, core.OpBcast, core.Args{SendBuf: buf, Root: rootNode})
		end()
		if err != nil {
			return err
		}
	}
	if e.node.Size() > 1 {
		end := e.phase("bcast intranode")
		err := e.nodeTab.Run(e.node, core.OpBcast, core.Args{SendBuf: buf, Root: 0})
		end()
		return err
	}
	return nil
}

// Reduce lowers a reduction: each node reduces onto its leader, the
// leaders reduce onto the root node's leader, and that leader hands the
// result to the root. Every rank must pass a recvbuf of sendbuf's length
// (it is working storage off-root, as in the flat core algorithms).
func (e *Engine) Reduce(sendbuf, recvbuf []byte, op datatype.Op, dt datatype.Type, root int) error {
	m, me := e.h.Map, e.h.World.Rank()
	if root < 0 || root >= e.h.World.Size() {
		return fmt.Errorf("%w: reduce root %d", comm.ErrRankOutOfRange, root)
	}
	if err := checkReduceArgs(sendbuf, recvbuf, dt); err != nil {
		return err
	}
	if e.node.Size() > 1 {
		end := e.phase("reduce intranode")
		err := e.nodeTab.Run(e.node, core.OpReduce, core.Args{
			SendBuf: sendbuf, RecvBuf: recvbuf, Op: op, Type: dt, Root: 0,
		})
		end()
		if err != nil {
			return err
		}
	} else {
		copy(recvbuf, sendbuf)
	}
	rootNode := m.NodeOf[root]
	rootLeader := m.Nodes[rootNode][0]
	if e.lead != nil && m.NumNodes() > 1 {
		end := e.phase("reduce internode")
		tmp := append([]byte(nil), recvbuf...)
		err := e.leadTab.Run(e.lead, core.OpReduce, core.Args{
			SendBuf: tmp, RecvBuf: recvbuf, Op: op, Type: dt, Root: rootNode,
		})
		end()
		if err != nil {
			return err
		}
	}
	if root != rootLeader && (me == rootLeader || me == root) {
		end := e.phase("reduce root hop")
		var err error
		if me == rootLeader {
			err = e.hopSend(root, recvbuf)
		} else {
			err = e.hopRecv(rootLeader, recvbuf)
		}
		end()
		return err
	}
	return nil
}

// Allreduce lowers an allreduce into reduce-to-leader, leader allreduce,
// and leader-to-node broadcast — the classic hierarchical shape, but with
// every phase's (algorithm, k) independently tuned.
func (e *Engine) Allreduce(sendbuf, recvbuf []byte, op datatype.Op, dt datatype.Type) error {
	if err := checkReduceArgs(sendbuf, recvbuf, dt); err != nil {
		return err
	}
	if e.node.Size() > 1 {
		end := e.phase("allreduce reduce intranode")
		err := e.nodeTab.Run(e.node, core.OpReduce, core.Args{
			SendBuf: sendbuf, RecvBuf: recvbuf, Op: op, Type: dt, Root: 0,
		})
		end()
		if err != nil {
			return err
		}
	} else {
		copy(recvbuf, sendbuf)
	}
	if e.lead != nil && e.h.Map.NumNodes() > 1 {
		end := e.phase("allreduce internode")
		tmp := append([]byte(nil), recvbuf...)
		err := e.leadTab.Run(e.lead, core.OpAllreduce, core.Args{
			SendBuf: tmp, RecvBuf: recvbuf, Op: op, Type: dt,
		})
		end()
		if err != nil {
			return err
		}
	}
	if e.node.Size() > 1 {
		end := e.phase("allreduce bcast intranode")
		err := e.nodeTab.Run(e.node, core.OpBcast, core.Args{SendBuf: recvbuf, Root: 0})
		end()
		return err
	}
	return nil
}

// Allgather lowers an allgather: each node gathers onto its leader, the
// leaders allgather node blocks (zero-padded to PPN blocks so uneven
// nodes exchange fixed-size slots), every leader scatters the blocks into
// world-rank order, and each node broadcasts the assembled result. The
// reassembly honours arbitrary placements: recvbuf ends up in world-rank
// order even when nodes interleave ranks (dispersed placement).
func (e *Engine) Allgather(sendbuf, recvbuf []byte) error {
	m := e.h.Map
	p := e.h.World.Size()
	b := len(sendbuf)
	if len(recvbuf) != p*b {
		return fmt.Errorf("topo: allgather recvbuf %d bytes, want %d", len(recvbuf), p*b)
	}
	if b == 0 {
		return nil
	}
	nodeSize := e.node.Size()
	gathered := make([]byte, nodeSize*b)
	if nodeSize > 1 {
		end := e.phase("allgather gather intranode")
		err := e.nodeTab.Run(e.node, core.OpGather, core.Args{
			SendBuf: sendbuf, RecvBuf: gathered, Root: 0,
		})
		end()
		if err != nil {
			return err
		}
	} else {
		copy(gathered, sendbuf)
	}
	if e.lead != nil && m.NumNodes() > 1 {
		end := e.phase("allgather internode")
		padded := make([]byte, m.PPN*b)
		copy(padded, gathered)
		all := make([]byte, m.NumNodes()*m.PPN*b)
		err := e.leadTab.Run(e.lead, core.OpAllgather, core.Args{
			SendBuf: padded, RecvBuf: all,
		})
		end()
		if err != nil {
			return err
		}
		for v, members := range m.Nodes {
			for i, r := range members {
				src := (v*m.PPN + i) * b
				copy(recvbuf[r*b:(r+1)*b], all[src:src+b])
			}
		}
	} else if e.h.IsLeader {
		for i, r := range m.Nodes[m.NodeOf[e.h.World.Rank()]] {
			copy(recvbuf[r*b:(r+1)*b], gathered[i*b:(i+1)*b])
		}
	}
	if nodeSize > 1 {
		end := e.phase("allgather bcast intranode")
		err := e.nodeTab.Run(e.node, core.OpBcast, core.Args{SendBuf: recvbuf, Root: 0})
		end()
		return err
	}
	return nil
}

// checkReduceArgs mirrors the buffer contract of the flat core reductions.
func checkReduceArgs(sendbuf, recvbuf []byte, dt datatype.Type) error {
	if len(sendbuf) != len(recvbuf) {
		return fmt.Errorf("topo: sendbuf %d bytes, recvbuf %d", len(sendbuf), len(recvbuf))
	}
	if dt.Size() > 0 && len(sendbuf)%dt.Size() != 0 {
		return fmt.Errorf("topo: buffer %d bytes not a multiple of %s", len(sendbuf), dt)
	}
	return nil
}

// levelComm meters one hierarchy level: every send is attributed to the
// level (intra- or internode) in the registry, and tuning.Table.Run sees
// the registry through metrics.Instrumented so per-level selection
// decisions are recorded. Receives and every capability (comm.Forward)
// pass through to the level's sub-communicator, and the reduction kernels
// running on a level find the world's flight recorder beneath it.
type levelComm struct {
	comm.Forward
	reg   *metrics.Registry
	rank  int // world rank, the registry's accounting key
	intra bool
}

// Metrics implements metrics.Instrumented.
func (l *levelComm) Metrics() *metrics.Registry { return l.reg }

// Send implements comm.Comm.
func (l *levelComm) Send(to int, tag comm.Tag, buf []byte) error {
	if err := l.Unwrap().Send(to, tag, buf); err != nil {
		return err
	}
	l.reg.HierSend(l.rank, l.intra, len(buf))
	return nil
}

// Isend implements comm.Comm.
func (l *levelComm) Isend(to int, tag comm.Tag, buf []byte) (comm.Request, error) {
	req, err := l.Unwrap().Isend(to, tag, buf)
	if err != nil {
		return nil, err
	}
	l.reg.HierSend(l.rank, l.intra, len(buf))
	return req, nil
}

// SendRecv implements comm.SendRecver.
func (l *levelComm) SendRecv(to int, sendBuf []byte, from int, recvBuf []byte, tag comm.Tag) (int, error) {
	n, err := comm.SendRecv(l.Unwrap(), to, sendBuf, from, recvBuf, tag)
	if err != nil {
		return n, err
	}
	l.reg.HierSend(l.rank, l.intra, len(sendBuf))
	return n, nil
}

// Recv implements comm.Comm.
func (l *levelComm) Recv(from int, tag comm.Tag, buf []byte) (int, error) {
	return l.Unwrap().Recv(from, tag, buf)
}

// Irecv implements comm.Comm.
func (l *levelComm) Irecv(from int, tag comm.Tag, buf []byte) (comm.Request, error) {
	return l.Unwrap().Irecv(from, tag, buf)
}
