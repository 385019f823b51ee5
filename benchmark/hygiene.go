package main

import (
	"os"
	"runtime"
	"strings"
	"time"

	"exacoll/internal/buf"
)

// hygiene is what a workload must leave behind: nothing. Every check is
// counted as one attempt and each violation as one failure.
type hygiene struct {
	goroutines  int
	outstanding uint64
	residue     map[string]bool
}

// residueDirs are where the shm transport creates its region files.
var residueDirs = []string{"/dev/shm", os.TempDir()}

// shmFiles lists the repository's region files (shm names them gcashm-*).
func shmFiles() map[string]bool {
	out := map[string]bool{}
	for _, dir := range residueDirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue // an absent /dev/shm cannot hold residue
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "gcashm") {
				out[dir+"/"+e.Name()] = true
			}
		}
	}
	return out
}

// startHygiene records the state before a workload forms anything.
func startHygiene() hygiene {
	return hygiene{
		goroutines:  runtime.NumGoroutine(),
		outstanding: buf.Stats().Outstanding(),
		residue:     shmFiles(),
	}
}

// hygieneReport is the outcome of the end-of-workload checks.
type hygieneReport struct {
	BufOutstanding   int `json:"buf_outstanding"`
	GoroutinesLeaked int `json:"goroutines_leaked"`
	ShmResidue       int `json:"shm_residue"`
	ChildUnreaped    int `json:"child_unreaped"`
	Checks           int `json:"checks"`
}

func (h hygieneReport) failures() int {
	n := 0
	for _, v := range []int{h.BufOutstanding, h.GoroutinesLeaked, h.ShmResidue, h.ChildUnreaped} {
		if v != 0 {
			n++
		}
	}
	return n
}

// finish runs the checks once every world of the workload is closed.
// Transport reader and heartbeat goroutines exit asynchronously after
// Close, so the goroutine count gets a grace period to fall back.
func (h hygiene) finish(childUnreaped int) hygieneReport {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > h.goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rep := hygieneReport{Checks: 4, ChildUnreaped: childUnreaped}
	if n := runtime.NumGoroutine() - h.goroutines; n > 0 {
		rep.GoroutinesLeaked = n
	}
	if out := buf.Stats().Outstanding(); out > h.outstanding {
		rep.BufOutstanding = int(out - h.outstanding)
	}
	for f := range shmFiles() {
		if !h.residue[f] {
			rep.ShmResidue++
		}
	}
	return rep
}
