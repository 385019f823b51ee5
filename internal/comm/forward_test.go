package comm

import (
	"reflect"
	"testing"
)

// slotStack wraps a bare substrate in one Namespace per slot, first slot
// outermost.
func slotStack(t *testing.T, slots ...int) Comm {
	var c Comm = &tagSpy{size: 1}
	for i := len(slots) - 1; i >= 0; i-- {
		ns, err := NewNamespace(c, slots[i])
		if err != nil {
			t.Fatal(err)
		}
		c = ns
	}
	return c
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	c := slotStack(t, 3, 2, 1)
	var seen []int
	Walk(c, func(x Comm) bool {
		if ns, ok := x.(*Namespace); ok {
			seen = append(seen, ns.Slot())
		} else {
			seen = append(seen, -1) // the substrate
		}
		return true
	})
	if want := []int{3, 2, 1, -1}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("Walk visited %v, want %v", seen, want)
	}
	visits := 0
	Walk(c, func(Comm) bool { visits++; return visits < 2 })
	if visits != 2 {
		t.Errorf("Walk made %d visits after visit returned false on the second", visits)
	}
	Walk(nil, func(Comm) bool { t.Error("Walk(nil) visited something"); return true })
}
