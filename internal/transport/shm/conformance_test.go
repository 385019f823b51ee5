package shm_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/core"
	"exacoll/internal/datatype"
	"exacoll/internal/transport/shm"
	"exacoll/internal/transport/transporttest"
	"exacoll/internal/tuning"
)

// TestTableIConformance runs the full Table I matrix over real
// shared-memory rings, comparing every rank's buffer bit for bit
// against the mem reference.
func TestTableIConformance(t *testing.T) {
	transporttest.RunTableI(t, func(t *testing.T, p int) transporttest.World {
		return shm.NewWorld(p)
	})
}

// TestInPlaceDelivery: a receive posted before its message arrives is
// filled straight out of the ring, inline and streamed payloads alike.
func TestInPlaceDelivery(t *testing.T) {
	w := shm.NewWorld(2)
	defer w.Close()
	transporttest.CheckInPlace(t, w)
}

// TestVCollConformance runs the skewed-size vector-collective matrix
// (ragged and zero-count vectors, one-hot skew, int64 and float64) over
// shared-memory rings against the mem reference.
func TestVCollConformance(t *testing.T) {
	transporttest.RunVColl(t, func(t *testing.T, p int) transporttest.World {
		return shm.NewWorld(p)
	})
}

// TestKillMidCollective: a rank fail-stops while a collective is in
// flight. Every survivor's collective must surface ErrPeerDead — no
// hangs, no wrong answers silently delivered — and the outcome must be
// symmetric across survivors round after round.
func TestKillMidCollective(t *testing.T) {
	const p = 4
	w := shm.NewWorld(p)
	defer w.Close()
	tab := &tuning.Table{Machine: "chaos", Ops: map[string][]tuning.Entry{
		core.OpAllreduce.String(): {{Alg: "allreduce_kring", K: 2}},
	}}
	const victim = 2
	payload := datatype.EncodeFloat64(make([]float64, 4096))

	comms := make([]comm.Comm, p)
	for r := 0; r < p; r++ {
		comms[r] = w.Comm(r)
		if r != victim {
			// A survivor can end up waiting on another survivor that
			// already aborted its round; the deadline turns that into
			// ErrTimeout instead of a hang (the ft agreement layer is
			// what resolves this properly — here we only test the
			// transport's fencing).
			comms[r].(comm.Deadliner).SetOpTimeout(2 * time.Second)
		}
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.Kill(victim)
	}()

	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := comms[r]
			recv := make([]byte, len(payload))
			for round := 0; ; round++ {
				a := core.Args{SendBuf: payload, RecvBuf: recv,
					Op: datatype.Sum, Type: datatype.Float64}
				if err := tab.Run(c, core.OpAllreduce, a); err != nil {
					errs[r] = err
					return
				}
				if round > 10000 {
					errs[r] = errors.New("kill never observed")
					return
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivors hung after mid-collective kill")
	}
	sawPeerDead := false
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		if errors.Is(errs[r], comm.ErrPeerDead) {
			sawPeerDead = true
		} else if !errors.Is(errs[r], comm.ErrTimeout) {
			t.Fatalf("rank %d: want ErrPeerDead or ErrTimeout, got %v", r, errs[r])
		}
	}
	if !sawPeerDead {
		t.Fatalf("no survivor observed ErrPeerDead; errs=%v", errs)
	}
	// The fence is sticky and symmetric: every survivor's detector
	// reports exactly the victim.
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		fd := comms[r].(comm.FailureDetector)
		deadline := time.Now().Add(5 * time.Second)
		for {
			f := fd.Failed()
			if len(f) == 1 && f[0] == victim {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rank %d: Failed() = %v, want [%d]", r, f, victim)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// And every survivor's direct operations on the victim agree.
		if err := comms[r].Send(victim, 99, []byte{1}); !errors.Is(err, comm.ErrPeerDead) {
			t.Fatalf("rank %d send to victim: want ErrPeerDead, got %v", r, err)
		}
		if _, err := comms[r].Recv(victim, 99, make([]byte, 8)); !errors.Is(err, comm.ErrPeerDead) {
			t.Fatalf("rank %d recv from victim: want ErrPeerDead, got %v", r, err)
		}
	}
}
