package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %d, want 7", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		fixed float64
		n     int
		want  float64
		ok    bool
	}{
		{0.99, 2000, 0.99, true}, // 20 beyond
		{0.99, 1000, 0.99, true}, // exactly 10 beyond
		{0.99, 999, 0.95, false}, // 9 beyond p99: lowered, flagged
		{0.99, 150, 0.90, false}, // p95 leaves 7
		{0.90, 100, 0.90, true},  // exactly 10 beyond
		{0.90, 99, 0.75, false},  // 9 beyond p90
		{0.90, 84, 0.75, false},
		{0.75, 84, 0.75, true},
		{0.75, 30, 0.5, false}, // nothing on the ladder fits: the median
	} {
		q, ok := tailFor(c.fixed, c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailFor(p%g, n=%d) = p%g,%v; want p%g,%v", c.fixed*100, c.n, q*100, ok, c.want*100, c.ok)
		}
		if ok && beyond(c.n, q) < tailMinBeyond {
			t.Errorf("tailFor(p%g, n=%d) kept a quantile with %d samples beyond it", c.fixed*100, c.n, beyond(c.n, q))
		}
	}
}

func TestSummarize(t *testing.T) {
	lat := make([]int64, 0, 2000)
	for i := 2000; i >= 1; i-- {
		lat = append(lat, int64(i)*1000) // 1..2000 us, unsorted
	}
	s := summarize(lat, 0.99)
	if s.N != 2000 || s.P50us != 1000 || s.TailUs != 1980 || s.TailQ != 0.99 || !s.TailOK || s.MaxUs != 2000 {
		t.Errorf("summarize = %+v", s)
	}
	if s.MeanUs != 1000.5 {
		t.Errorf("mean = %g, want 1000.5", s.MeanUs)
	}
	if s := summarize(make([]int64, 50), 0.99); s.TailOK || s.TailNote == "" {
		t.Errorf("50 samples at p99 must be flagged, got %+v", s)
	}
}

func TestMedianF(t *testing.T) {
	if got := medianF([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
