package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// step [0,100] > gca.allreduce [10,90] > post [20,30], wait [40,80];
	// a second gca span [92,98] with no children.
	spans := []span{
		{Name: "step", Parent: -1, Start: 0, End: 100},
		{Name: "gca.allreduce", Parent: 0, Start: 10, End: 90},
		{Name: spanTransportPost, Parent: 1, Start: 20, End: 30},
		{Name: spanTransportWait, Parent: 1, Start: 40, End: 80},
		{Name: "gca.allreduce", Parent: 0, Start: 92, End: 98},
	}
	got := selfTimes(spans)
	want := map[string]spanTotals{
		"step":            {Count: 1, Total: 100, SelfNs: 100 - 80 - 6},
		"gca.allreduce":   {Count: 2, Total: 86, SelfNs: (80 - 10 - 40) + 6},
		spanTransportPost: {Count: 1, Total: 10, SelfNs: 10},
		spanTransportWait: {Count: 1, Total: 40, SelfNs: 40},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
	// Self times of a tree add up to its root.
	var self int64
	for _, v := range got {
		self += v.SelfNs
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's 100", self)
	}

	sum := map[string]spanTotals{"step": {Count: 1, Total: 1, SelfNs: 1}}
	mergeTotals(sum, got)
	if sum["step"] != (spanTotals{Count: 2, Total: 101, SelfNs: 15}) {
		t.Errorf("mergeTotals step = %+v", sum["step"])
	}
}

func TestRankTracerNestingAndSampling(t *testing.T) {
	tr := newRankTracer(3, time.Now(), 2, 100)
	for step := 0; step < 4; step++ {
		root := tr.beginStep(step)
		op := tr.begin("gca.bcast")
		tr.leaf(spanTransportPost, tr.now(), tr.now())
		tr.end(op)
		tr.end(root)
	}
	// Steps 0 and 2 are kept: 3 spans each.
	if len(tr.spans) != 6 {
		t.Fatalf("kept %d spans, want 6", len(tr.spans))
	}
	for i, s := range tr.spans {
		if s.Rank != 3 || (s.Step != 0 && s.Step != 2) {
			t.Errorf("span %d: %+v", i, s)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts: %+v", i, s)
		}
	}
	base := 3 // second kept step's spans start here
	if tr.spans[base].Parent != -1 || tr.spans[base+1].Parent != base || tr.spans[base+2].Parent != base+1 {
		t.Errorf("parents = %d %d %d", tr.spans[base].Parent, tr.spans[base+1].Parent, tr.spans[base+2].Parent)
	}

	// The limit stops recording at a step boundary, never inside a step.
	tr = newRankTracer(0, time.Now(), 1, 4)
	for step := 0; step < 3; step++ {
		root := tr.beginStep(step)
		tr.end(tr.begin("a"))
		tr.end(tr.begin("b"))
		tr.end(root)
	}
	if len(tr.spans) != 6 { // the step that crosses the limit is kept whole, the next dropped
		t.Errorf("limit kept %d spans, want 6", len(tr.spans))
	}
}
