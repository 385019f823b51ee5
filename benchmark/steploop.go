package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// stepper is one rank's side of a step-loop workload.
type stepper interface {
	// step runs step i of the seed-generated sequence. Its last operation
	// is a collective every rank's result depends on, so no rank can
	// start step i+1 before every rank has entered step i.
	step(i int) error
	// clearOutputs wipes the result buffers so verify cannot pass on a
	// previous step's data.
	clearOutputs()
	// verify checks step i's results exactly against the naive reference.
	verify(i int) error
	// barrier synchronises the ranks outside any timed span.
	barrier() error
}

// loopOpts bounds one pass of the step loop.
type loopOpts struct {
	// duration ends the pass: the first step rank 0 starts after it has
	// elapsed is the last but one. Zero means maxSteps alone decides.
	duration time.Duration
	// maxSteps, when > 0, ends the pass after that many steps.
	maxSteps int
	// verifyEvery > 0 verifies every such step (and step 0).
	verifyEvery int
}

// loopResult is what one pass measured.
type loopResult struct {
	lat      []int64 // per step: rank 0's start to the last rank's end, ns
	wall     time.Duration
	steps    int
	verified int
	failed   int // steps that errored or failed verification
	err      error
}

// runLoop drives every rank through the closed step loop: each rank issues
// step i+1 only after its own step i returned. A step's latency runs from
// rank 0's start of the step to the last rank's end of it, all read from
// one monotonic clock (the ranks share the process).
//
// On sampled steps the ranks wipe their outputs and meet at a barrier
// before the start stamp, and verify and meet again after the end stamp,
// so verification never falls inside a timed span nor delays a rank into
// the next one.
func runLoop(ranks []stepper, abort func(), o loopOpts) loopResult {
	p := len(ranks)
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }

	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	if o.maxSteps > 0 {
		stopAt.Store(int64(o.maxSteps))
	}
	capHint := o.maxSteps
	if capHint <= 0 {
		capHint = 1 << 12
	}
	starts := make([]int64, 0, capHint)
	ends := make([][]int64, p)
	errs := make([]error, p)
	verified := make([]int, p)
	badVerify := make([]int, p)

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rk := ranks[r]
			myEnds := make([]int64, 0, capHint)
			defer func() { ends[r] = myEnds }()
			fail := func(i int, what string, err error) {
				errs[r] = fmt.Errorf("rank %d step %d %s: %w", r, i, what, err)
				abort()
			}
			for i := 0; int64(i) < stopAt.Load(); i++ {
				sampled := o.verifyEvery > 0 && i%o.verifyEvery == 0
				if sampled {
					rk.clearOutputs()
					if err := rk.barrier(); err != nil {
						fail(i, "barrier", err)
						return
					}
				}
				t := now()
				if r == 0 {
					starts = append(starts, t)
					// Every other rank is at most inside step i (it cannot
					// leave it without rank 0), so all of them read the
					// new bound before they test it for step i+2.
					if o.duration > 0 && t-starts[0] >= int64(o.duration) && stopAt.Load() == math.MaxInt64 {
						stopAt.Store(int64(i) + 2)
					}
				}
				err := rk.step(i)
				myEnds = append(myEnds, now())
				if err != nil {
					fail(i, "run", err)
					return
				}
				if sampled {
					verified[r]++
					if err := rk.verify(i); err != nil {
						badVerify[r]++
						if errs[r] == nil {
							errs[r] = fmt.Errorf("rank %d step %d verify: %w", r, i, err)
						}
					}
					if err := rk.barrier(); err != nil {
						fail(i, "barrier", err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	res := loopResult{steps: len(starts)}
	for r := 0; r < p; r++ {
		if len(ends[r]) < res.steps {
			res.steps = len(ends[r])
		}
		if errs[r] != nil && res.err == nil {
			res.err = errs[r]
		}
		if badVerify[r] > res.failed {
			res.failed = badVerify[r]
		}
	}
	res.verified = verified[0]
	if len(starts) > res.steps {
		res.failed += len(starts) - res.steps // steps some rank never finished
	}
	res.lat = make([]int64, res.steps)
	var last int64
	for i := 0; i < res.steps; i++ {
		end := ends[0][i]
		for r := 1; r < p; r++ {
			if ends[r][i] > end {
				end = ends[r][i]
			}
		}
		res.lat[i] = end - starts[i]
		if end > last {
			last = end
		}
	}
	if res.steps > 0 {
		res.wall = time.Duration(last - starts[0])
	}
	return res
}
