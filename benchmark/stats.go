package main

import (
	"fmt"
	"math"
	"sort"
)

// tailMinBeyond is the number of samples that must lie beyond a reported
// percentile (choosing-metrics §1): fewer and the figure is one outlier.
const tailMinBeyond = 10

// tailLadder lists the percentiles a tail metric may be reported at,
// highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// percentile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. Nearest rank never interpolates, so the number reported is
// a latency that was actually observed.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the nearest-rank index ceil(q*n)-1 clamped to [0, n); the
// epsilon keeps q*n products like 0.9*100 = 90.00000000000001 on rank 90.
func rankIndex(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// beyond is the number of samples above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tailFor returns the percentile a workload's tail metric is taken at: the
// workload's fixed choice when n samples leave at least tailMinBeyond
// beyond it, otherwise the next lower rung of tailLadder that does. ok is
// false when the fixed choice had to be lowered, which the report flags:
// a lowered tail is not comparable with a baseline taken at the fixed one.
func tailFor(fixed float64, n int) (q float64, ok bool) {
	if beyond(n, fixed) >= tailMinBeyond {
		return fixed, true
	}
	for _, q := range tailLadder {
		if q < fixed && beyond(n, q) >= tailMinBeyond {
			return q, false
		}
	}
	return 0.5, false
}

// latencySummary is the distribution of one pass's step latencies.
type latencySummary struct {
	N        int     `json:"samples"`
	P50us    float64 `json:"p50_us"`
	TailQ    float64 `json:"tail_quantile"`
	TailOK   bool    `json:"tail_quantile_is_fixed"`
	TailUs   float64 `json:"tail_us"`
	MeanUs   float64 `json:"mean_us"`
	MaxUs    float64 `json:"max_us"`
	TailNote string  `json:"tail_note,omitempty"`
}

// summarize sorts lat (nanoseconds) in place and reports its median, mean
// and the tail at the workload's fixed quantile.
func summarize(lat []int64, fixedTail float64) latencySummary {
	if len(lat) == 0 {
		return latencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum int64
	for _, v := range lat {
		sum += v
	}
	q, ok := tailFor(fixedTail, len(lat))
	s := latencySummary{
		N:      len(lat),
		P50us:  float64(percentile(lat, 0.5)) / 1e3,
		TailQ:  q,
		TailOK: ok,
		TailUs: float64(percentile(lat, q)) / 1e3,
		MeanUs: float64(sum) / float64(len(lat)) / 1e3,
		MaxUs:  float64(lat[len(lat)-1]) / 1e3,
	}
	if !ok {
		s.TailNote = fmt.Sprintf("only %d samples: tail lowered from p%g to p%g", len(lat), fixedTail*100, q*100)
	}
	return s
}

// medianF returns the median of vals (mean of the middle pair for even n);
// it sorts a copy.
func medianF(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
