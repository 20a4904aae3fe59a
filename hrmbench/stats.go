package main

import (
	"math"
	"sort"
)

// quartiles returns Q1, median and Q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them, so
// a run's own spreads read the same as capture.py's across runs. One
// sample gives that sample three times; none gives NaNs. xs is left
// unsorted.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reaches performs no work per unit).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histGrowth is the width of a latHist bucket: each is 0.5% wider than
// the last, so a percentile read from it is within 0.25% of the sample.
const histGrowth = 1.005

var logHistGrowth = math.Log(histGrowth)

// latHist counts durations (ns) in logarithmic buckets. It keeps a
// run's latency distribution in constant memory, so the benchmark's
// own samples do not grow the resident set it reports.
type latHist struct {
	counts []uint64
	n      uint64
}

func histBucket(ns float64) int {
	if ns < 1 {
		return 0
	}
	return int(math.Log(ns)/logHistGrowth) + 1
}

// add counts one duration.
func (h *latHist) add(ns float64) {
	b := histBucket(ns)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// merge adds o's counts to h.
func (h *latHist) merge(o *latHist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (nearest rank) as the
// geometric middle of its bucket, or NaN for an empty histogram.
func (h *latHist) percentile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(p/100*float64(h.n) - 1e-9)) // the epsilon absorbs p/100 rounding up
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			if b == 0 {
				return 0
			}
			return math.Exp((float64(b-1) + 0.5) * logHistGrowth)
		}
	}
	return math.NaN()
}
