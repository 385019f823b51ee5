package main

import (
	"reflect"
	"testing"
	"time"

	"exacoll/gca"
	"exacoll/internal/comm"
	"exacoll/internal/machine"
	"exacoll/internal/metrics"
	"exacoll/internal/simnet"
)

// The wrapper must offer every optional capability of package comm.
var (
	_ comm.Comm            = (*spanComm)(nil)
	_ comm.Clock           = (*spanComm)(nil)
	_ comm.ClockProber     = (*spanComm)(nil)
	_ comm.Deadliner       = (*spanComm)(nil)
	_ comm.FailureDetector = (*spanComm)(nil)
	_ comm.Locator         = (*spanComm)(nil)
	_ comm.Purger          = (*spanComm)(nil)
	_ comm.SendRecver      = (*spanComm)(nil)
	_ comm.Tester          = (*spanRequest)(nil)
)

// Capability probes must answer through the wrapper exactly as they do on
// the communicator underneath: a virtual clock only where one exists,
// locality and failures unchanged.
func TestSpanCommForwardsCapabilities(t *testing.T) {
	w, err := newMemWorld(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := newRankTracer(0, time.Now(), 1, 100)
	sc := newSpanComm(w.comms[0], tr)
	if _, ok := comm.VirtualClock(sc); ok {
		t.Error("wrapper over mem claims a virtual clock")
	}
	for r := 0; r < 4; r++ {
		got, gok := comm.LocalityOf(sc, r)
		want, wok := comm.LocalityOf(w.comms[0], r)
		if got != want || gok != wok {
			t.Errorf("Locality(%d) = %+v,%v through the wrapper, %+v,%v beneath", r, got, gok, want, wok)
		}
	}
	if sc.Failed() != nil {
		t.Errorf("Failed() = %v on a healthy world", sc.Failed())
	}
	if sc.Unwrap() != w.comms[0] {
		t.Error("Unwrap does not return the wrapped communicator")
	}

	sim, err := simnet.New(machine.Testbox(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(func(c comm.Comm) error {
		sc := newSpanComm(c, newRankTracer(c.Rank(), time.Now(), 1, 100))
		clk, ok := comm.VirtualClock(sc)
		if !ok {
			t.Error("wrapper over simnet hides the virtual clock")
			return nil
		}
		if inner, _ := comm.VirtualClock(c); clk.Now() != inner.Now() {
			t.Errorf("Now() = %g through the wrapper, %g beneath", clk.Now(), inner.Now())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A traced run must select the same (algorithm, k) for every collective
// and send exactly the messages an untraced run sends; otherwise the
// traced pass explains a different program. Both runs are observed through
// the repository's own metrics registry.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"solver_small_mem", "vector_skew_mem", "overlap_hier_mem"} {
		s := stepWorkload(name)
		const steps = 16 // two whole cycles of the eight variants
		observe := func(traced bool) (*metrics.Snapshot, int64) {
			inst, err := newInstance(s, 9)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			reg := metrics.NewRegistry()
			var scs []*spanComm
			for r, rk := range inst.ranks {
				var c comm.Comm = inst.w.comms[r]
				rk.bare = c
				if traced {
					rk.tr = newRankTracer(r, time.Now(), 1, 1000)
					sc := newSpanComm(c, rk.tr)
					scs = append(scs, sc)
					c = sc
				}
				rk.s = gca.NewSession(c, append(s.sessionOptions(), gca.WithMetrics(reg))...)
			}
			res := runLoop(inst.steppers(), inst.Close, loopOpts{maxSteps: steps, verifyEvery: 4})
			if res.err != nil || res.failed != 0 || res.steps != steps {
				t.Fatalf("%s traced=%v: steps=%d failed=%d err=%v", name, traced, res.steps, res.failed, res.err)
			}
			var msgs int64
			for _, sc := range scs {
				msgs += sc.counters().msgs
			}
			return reg.Snapshot(), msgs
		}
		plain, _ := observe(false)
		traced, counted := observe(true)

		type choice struct {
			op, alg string
			k       int
			count   uint64
		}
		choices := func(s *metrics.Snapshot) []choice {
			var out []choice
			for _, c := range s.Collectives {
				out = append(out, choice{c.Op, c.Alg, c.K, c.Count})
			}
			return out
		}
		if !reflect.DeepEqual(choices(plain), choices(traced)) {
			t.Errorf("%s: selections differ\nuntraced %v\ntraced   %v", name, choices(plain), choices(traced))
		}
		if len(choices(plain)) == 0 {
			t.Errorf("%s: no selection was recorded", name)
		}
		ps, ts := plain.Totals(), traced.Totals()
		if ps.Sends != ts.Sends || ps.SendBytes != ts.SendBytes {
			t.Errorf("%s: untraced sent %d msgs / %d B, traced %d / %d", name, ps.Sends, ps.SendBytes, ts.Sends, ts.SendBytes)
		}
		if uint64(counted) != ts.Sends {
			t.Errorf("%s: the wrapper counted %d messages, the metrics registry %d", name, counted, ts.Sends)
		}
	}
}
