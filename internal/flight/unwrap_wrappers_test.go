package flight_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"exacoll/internal/comm"
	"exacoll/internal/elastic"
	"exacoll/internal/flight"
	"exacoll/internal/transport/tcp"
)

// These tests pin the chain-walk contract for the two wrappers whose
// inner is a concrete *tcp.Proc, which transporttest.CheckWrapper cannot
// re-seat on mem or simnet: flight.RecorderOf must walk through tcp.Shared
// (pooled link handles) and elastic.Member exactly like it walks every
// comm.Forward wrapper, and a recorder anywhere beneath stays discoverable.

func flightFreeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRecorderOfThroughShared: pooled TCP handles expose the proc beneath;
// a recorder wrapped over a Shared handle is found through a namespace on
// top, and an unrecorded Shared terminates the walk without a recorder.
func TestRecorderOfThroughShared(t *testing.T) {
	addr := flightFreeAddr(t)
	var procs [2]*tcp.Proc
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			procs[r], errs[r] = tcp.Rendezvous(r, 2, addr, tcp.Options{Timeout: 10 * time.Second})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	pool := tcp.NewPool(procs[0])
	defer pool.Close()
	defer procs[1].Close()

	sh, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Release()
	if flight.RecorderOf(sh) != nil {
		t.Fatal("RecorderOf invented a recorder under a bare Shared handle")
	}

	rec := flight.NewRecorder(flight.Options{}).Wrap(sh)
	ns, err := comm.NewNamespace(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flight.RecorderOf(ns) == nil {
		t.Fatal("RecorderOf did not walk namespace -> recorder -> tcp.Shared")
	}
}

// TestRecorderOfThroughMember: the elastic membership wrapper is
// transparent to the probe walk in both directions — no recorder beneath
// a bare Member, and a recorder above one found through a namespace.
func TestRecorderOfThroughMember(t *testing.T) {
	addr := flightFreeAddr(t)
	var members [2]*elastic.Member
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		members[0], errs[0] = elastic.Host(addr, 2, 4, tcp.Options{Timeout: 10 * time.Second})
	}()
	go func() {
		defer wg.Done()
		members[1], errs[1] = elastic.Dial(addr, 1, 2, tcp.Options{Timeout: 10 * time.Second})
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", r, err)
		}
	}
	defer members[0].Close()
	defer members[1].Close()

	if flight.RecorderOf(members[0]) != nil {
		t.Fatal("RecorderOf invented a recorder under a bare Member")
	}
	rec := flight.NewRecorder(flight.Options{}).Wrap(members[0])
	ns, err := comm.NewNamespace(rec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if flight.RecorderOf(ns) == nil {
		t.Fatal("RecorderOf did not walk namespace -> recorder -> elastic.Member")
	}
}
