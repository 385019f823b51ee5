package comm

import "testing"

// tagSpy records every operation's translated (peer, tag) and purge range.
type tagSpy struct {
	rank, size int
	sends      []Tag
	recvs      []Tag
	purges     [][2]Tag
}

func (s *tagSpy) Rank() int         { return s.rank }
func (s *tagSpy) Size() int         { return s.size }
func (s *tagSpy) ChargeCompute(int) {}
func (s *tagSpy) Send(to int, tag Tag, buf []byte) error {
	s.sends = append(s.sends, tag)
	return nil
}
func (s *tagSpy) Recv(from int, tag Tag, buf []byte) (int, error) {
	s.recvs = append(s.recvs, tag)
	return 0, nil
}
func (s *tagSpy) Isend(to int, tag Tag, buf []byte) (Request, error) {
	s.sends = append(s.sends, tag)
	return &fakeReq{}, nil
}
func (s *tagSpy) Irecv(from int, tag Tag, buf []byte) (Request, error) {
	s.recvs = append(s.recvs, tag)
	return &fakeReq{}, nil
}
func (s *tagSpy) PurgeTags(lo, hi Tag) { s.purges = append(s.purges, [2]Tag{lo, hi}) }

// TestNamespaceLayout pins the in-window layout: pieces tile the window in
// ascending destination order without overlap, and the total width — the
// whole translated session tag space — fits in one namespace slot.
func TestNamespaceLayout(t *testing.T) {
	var prevEnd Tag
	for i, p := range nsPieces {
		if p.dst != prevEnd {
			t.Errorf("piece %d: dst %d, want %d (pieces must tile)", i, p.dst, prevEnd)
		}
		if p.srcHi <= p.srcLo {
			t.Errorf("piece %d: empty source range [%d,%d)", i, p.srcLo, p.srcHi)
		}
		if p.mod != 0 && p.mod > p.srcHi-p.srcLo {
			t.Errorf("piece %d: mod %d wider than source range", i, p.mod)
		}
		prevEnd = p.dst + p.width()
	}
	if prevEnd > NamespaceStride {
		t.Fatalf("layout width %d exceeds NamespaceStride %d", prevEnd, NamespaceStride)
	}
	if NamespaceSlots < 4000 {
		t.Fatalf("NamespaceSlots = %d, want thousands of concurrent sessions", NamespaceSlots)
	}
	// The namespace region must sit above every singleton-session range.
	if NamespaceBase < TagFlightBase+FlightTagWidth {
		t.Fatalf("NamespaceBase %d overlaps the singleton session layout (< %d)",
			NamespaceBase, TagFlightBase+FlightTagWidth)
	}
	// And the last slot's window must stay within the signed-32-bit space.
	_, hi := NamespaceWindow(NamespaceSlots - 1)
	if int64(hi) > 1<<31-1 && hi <= 0 {
		t.Fatalf("last window end %d overflows Tag", hi)
	}
}

// TestNamespaceTranslation verifies the piecewise map: every region of the
// session layout lands inside the slot's window, regions stay disjoint,
// and distinct slots can never produce the same transport tag.
func TestNamespaceTranslation(t *testing.T) {
	spy := &tagSpy{rank: 0, size: 2}
	ns, err := NewNamespace(spy, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ns.Window()
	cases := []struct {
		name string
		tag  Tag
	}{
		{"user-first", TagUser},
		{"user-last", TagUser + NamespaceUserTags - 1},
		{"coll-base", TagCollBase},
		{"coll-top", TagCollBase + FTEpochStride - 1},
		{"nbc-first", TagNBCBase},
		{"nbc-last", TagFTBase - 1},
		{"ft-seq", TagFTBase + 17},
		{"ft-epoch0", TagFTEpochBase},
		{"ft-epoch-last", TagFlightBase - 1},
		{"flight", TagFlightBase + FlightTagWidth - 1},
	}
	seen := map[Tag]string{}
	for _, c := range cases {
		if err := ns.Send(1, c.tag, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := spy.sends[len(spy.sends)-1]
		if got < lo || got >= hi {
			t.Errorf("%s: tag %d translated to %d, outside window [%d,%d)", c.name, c.tag, got, lo, hi)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s and %s collide on transport tag %d", c.name, prev, got)
		}
		seen[got] = c.name
	}

	// Relative offsets inside a region are preserved (FIFO streams stay
	// distinct streams).
	spy.sends = nil
	ns.Send(1, TagNBCBase+5, nil)
	ns.Send(1, TagNBCBase+6, nil)
	if spy.sends[1] != spy.sends[0]+1 {
		t.Errorf("nbc offsets not preserved: %d then %d", spy.sends[0], spy.sends[1])
	}

	// Distinct slots translate the same tag into disjoint windows.
	spy2 := &tagSpy{rank: 0, size: 2}
	ns2, _ := NewNamespace(spy2, 4)
	ns2.Send(1, TagNBCBase+5, nil)
	if spy2.sends[0] == spy.sends[0] {
		t.Errorf("slots 3 and 4 collide on transport tag %d", spy.sends[0])
	}
	lo2, _ := ns2.Window()
	if lo2 != hi {
		t.Errorf("adjacent windows not contiguous: slot 3 ends %d, slot 4 starts %d", hi, lo2)
	}

	// Receive paths translate identically to send paths.
	if _, err := ns.Recv(1, TagCollBase, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Irecv(1, TagCollBase, nil); err != nil {
		t.Fatal(err)
	}
	if spy.recvs[0] != spy.recvs[1] {
		t.Errorf("Recv and Irecv disagree: %d vs %d", spy.recvs[0], spy.recvs[1])
	}

	// Untranslatable tags fail loudly rather than escaping the window.
	if err := ns.Send(1, NamespaceUserTags, nil); err == nil {
		t.Error("user tag beyond NamespaceUserTags must be rejected")
	}
	if _, err := ns.Recv(1, TagCollBase+FTEpochStride, nil); err == nil {
		t.Error("tag in the inter-region gap must be rejected")
	}
	if _, err := ns.Isend(1, NamespaceBase, nil); err == nil {
		t.Error("already-namespaced tag must be rejected (no double wrapping)")
	}
}

// TestNamespaceFTEpochFold pins the folded fault-tolerance epoch map:
// epochs NamespaceFTEpochs apart share a window (safe because retired
// windows are purged on advance), nearer epochs do not.
func TestNamespaceFTEpochFold(t *testing.T) {
	spy := &tagSpy{rank: 0, size: 2}
	ns, _ := NewNamespace(spy, 0)
	epochTag := func(e int) Tag { return TagFTEpochBase + Tag(e)*FTEpochStride }
	ns.Send(1, epochTag(0), nil)
	ns.Send(1, epochTag(NamespaceFTEpochs-1), nil)
	ns.Send(1, epochTag(NamespaceFTEpochs), nil)
	if spy.sends[0] == spy.sends[1] {
		t.Errorf("epochs 0 and %d must stay distinct", NamespaceFTEpochs-1)
	}
	if spy.sends[0] != spy.sends[2] {
		t.Errorf("epoch %d should fold onto epoch 0: %d vs %d",
			NamespaceFTEpochs, spy.sends[2], spy.sends[0])
	}
}

// TestNamespacePurge verifies purge-range translation, including the split
// at the folded region's wrap point and whole-window purges.
func TestNamespacePurge(t *testing.T) {
	spy := &tagSpy{rank: 0, size: 2}
	ns, _ := NewNamespace(spy, 2)

	// A direct-mapped range translates to a single range of equal width.
	ns.PurgeTags(TagCollBase, TagCollBase+0x100)
	if len(spy.purges) != 1 || spy.purges[0][1]-spy.purges[0][0] != 0x100 {
		t.Fatalf("direct purge: got %v", spy.purges)
	}
	collLo := spy.purges[0][0]
	wlo, whi := ns.Window()
	if collLo < wlo || spy.purges[0][1] > whi {
		t.Fatalf("purge range %v escapes window [%d,%d)", spy.purges[0], wlo, whi)
	}

	// Purging one retired FT epoch window is the quiesce the ft layer
	// performs on advance; it must stay a single aligned window.
	spy.purges = nil
	e := NamespaceFTEpochs + 3 // folds to window 3
	ns.PurgeTags(TagFTEpochBase+Tag(e)*FTEpochStride, TagFTEpochBase+Tag(e+1)*FTEpochStride)
	if len(spy.purges) != 1 || spy.purges[0][1]-spy.purges[0][0] != FTEpochStride {
		t.Fatalf("epoch purge: got %v", spy.purges)
	}

	// A range crossing the fold's wrap point splits into two arcs.
	spy.purges = nil
	last := NamespaceFTEpochs - 1
	ns.PurgeTags(TagFTEpochBase+Tag(last)*FTEpochStride, TagFTEpochBase+Tag(last+2)*FTEpochStride)
	if len(spy.purges) != 2 {
		t.Fatalf("wrapping purge: got %v, want two arcs", spy.purges)
	}
	total := (spy.purges[0][1] - spy.purges[0][0]) + (spy.purges[1][1] - spy.purges[1][0])
	if total != 2*FTEpochStride {
		t.Errorf("wrapping purge covers %d tags, want %d", total, 2*FTEpochStride)
	}

	// A session-wide purge (the slot-recycle fence) covers every piece but
	// never exceeds the folded region's width.
	spy.purges = nil
	ns.PurgeTags(0, 1<<31-1)
	var covered Tag
	for _, pr := range spy.purges {
		if pr[0] < wlo || pr[1] > whi {
			t.Errorf("purge %v escapes window", pr)
		}
		covered += pr[1] - pr[0]
	}
	want := nsPieces[len(nsPieces)-1].dst + nsPieces[len(nsPieces)-1].width()
	if covered != want {
		t.Errorf("full purge covered %d tags, want the whole layout %d", covered, want)
	}
}

// TestNamespaceSlotValidation: slots outside [0, NamespaceSlots) are
// rejected. (Capability forwarding is checked by transporttest.CheckWrapper
// in wrapper_test.go.)
func TestNamespaceSlotValidation(t *testing.T) {
	spy := &tagSpy{rank: 1, size: 4}
	if _, err := NewNamespace(spy, -1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := NewNamespace(spy, NamespaceSlots); err == nil {
		t.Error("slot beyond NamespaceSlots accepted")
	}
}
