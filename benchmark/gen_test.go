package main

import (
	"reflect"
	"testing"
)

func TestSeedDeterminesInputs(t *testing.T) {
	const p, variants = 8, 8
	a := genVectorPlan(42, p, variants, 32768, 8192, 32768)
	b := genVectorPlan(42, p, variants, 32768, 8192, 32768)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different count vectors")
	}
	if !reflect.DeepEqual(genRoots(42, p, variants), genRoots(42, p, variants)) {
		t.Fatal("same seed, different roots")
	}
	c := genVectorPlan(43, p, variants, 32768, 8192, 32768)
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 42 and 43 drew the same count vectors")
	}
	g1, err := newSimGrid(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := newSimGrid(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.order, g2.order) {
		t.Error("same seed, different order of simulated points")
	}
	if g3, err := newSimGrid(8, 16); err != nil || reflect.DeepEqual(g1.order, g3.order) {
		t.Errorf("seeds 7 and 8 drew the same order (err %v)", err)
	}
	if payloadSalt(5) != payloadSalt(5) {
		t.Error("same seed, different payload salt")
	}
}

// Every seed and every variant must move the same amount of data in the
// same multiset of blocks: only placement may differ.
func TestSeedOnlyPlaces(t *testing.T) {
	const p, variants = 8, 8
	sorted := func(v []int) []int {
		s := append([]int(nil), v...)
		for i := range s { // tiny insertion sort, avoids importing sort for one call
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s
	}
	ref := genVectorPlan(1, p, variants, 32768, 8192, 32768)
	for seed := uint64(1); seed <= 20; seed++ {
		vp := genVectorPlan(seed, p, variants, 32768, 8192, 32768)
		for v := 0; v < variants; v++ {
			if sum(vp.allgatherv[v]) != 32768 || sum(vp.reduceScatterv[v]) != 32768 {
				t.Fatalf("seed %d variant %d: totals %d %d", seed, v, sum(vp.allgatherv[v]), sum(vp.reduceScatterv[v]))
			}
			if !reflect.DeepEqual(sorted(vp.allgatherv[v]), sorted(ref.allgatherv[0])) {
				t.Errorf("seed %d variant %d: allgatherv blocks %v differ from the reference multiset", seed, v, vp.allgatherv[v])
			}
			for i := 0; i < p; i++ {
				if got := sum(vp.alltoallv[v][i*p : (i+1)*p]); got != 8192 {
					t.Errorf("seed %d variant %d row %d sends %d elements, want 8192", seed, v, i, got)
				}
			}
			zeros := 0
			for _, n := range vp.allgatherv[v] {
				if n == 0 {
					zeros++
				}
			}
			if zeros != 2 {
				t.Errorf("seed %d variant %d: %d empty allgatherv blocks, want 2", seed, v, zeros)
			}
			hot := 0
			for _, n := range vp.reduceScatterv[v] {
				if n > 0 {
					hot++
				}
			}
			if hot != 1 {
				t.Errorf("seed %d variant %d: reduce-scatterv is not one-hot: %v", seed, v, vp.reduceScatterv[v])
			}
		}
		roots := genRoots(seed, p, variants)
		seen := map[int]int{}
		for _, r := range roots {
			seen[r]++
		}
		if len(seen) != p {
			t.Errorf("seed %d: roots %v do not cover every rank", seed, roots)
		}
	}
}

func TestRotate(t *testing.T) {
	if got := rotate([]int{1, 2, 3, 4}, 1); !reflect.DeepEqual(got, []int{2, 3, 4, 1}) {
		t.Errorf("rotate = %v", got)
	}
	m := []int{0, 1, 2, 3} // 2x2: [[0,1],[2,3]]
	if got := rotateMatrix(m, 2, 1); !reflect.DeepEqual(got, []int{3, 2, 1, 0}) {
		t.Errorf("rotateMatrix = %v", got)
	}
	if got := splitCounts(10, []int{1, 1, 1}); sum(got) != 10 {
		t.Errorf("splitCounts loses elements: %v", got)
	}
}
