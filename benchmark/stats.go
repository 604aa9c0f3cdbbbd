package main

import (
	"math"
	"sort"
)

// minTailSamples is the smallest sample count for which the p99 is
// reported: fewer than 1 000 samples leave under ten beyond the 99th
// percentile, and a quantile resting on a handful of points is noise.
const minTailSamples = 1000

// quantile returns the exact q-quantile (nearest rank) of an ascending
// sample slice: the smallest sample with at least a fraction q of the
// samples at or below it. It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is quantile(0.5) of an unsorted slice (the slice is sorted in
// place).
func median(samples []float64) float64 {
	sort.Float64s(samples)
	return quantile(samples, 0.5)
}

// tailQuantile is quantile with the sample-count rule applied: it reports
// ok=false when the slice is too short to carry a p99.
func tailQuantile(sorted []float64, q float64) (v float64, ok bool) {
	if len(sorted) < minTailSamples {
		return 0, false
	}
	return quantile(sorted, q), true
}

// quartileSpread is the distance between the first and third quartile of
// values as a share of their median, with the quartiles computed the way
// Python's statistics.quantiles(values, n=4) does (exclusive method). It
// returns 0 for fewer than two values or a zero median.
func quartileSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q1, q3 := exclusiveQuantile(s, 1), exclusiveQuantile(s, 3)
	med := exclusiveQuantile(s, 2)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// exclusiveQuantile is the i-th quartile cut point of an ascending slice by
// the exclusive method: position i(n+1)/4 with the index clamped to the
// data and the remainder interpolated (or, past the ends, extrapolated)
// linearly, exactly as Python does.
func exclusiveQuantile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*(n+1) - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// mergeIntervals returns the maximal disjoint intervals covering the same
// points as in, in ascending order. Touching intervals merge; empty ones are
// dropped. The input is reordered.
func mergeIntervals(in []interval) []interval {
	sort.Slice(in, func(i, j int) bool { return in[i].start < in[j].start })
	var out []interval
	for _, iv := range in {
		if iv.end <= iv.start {
			continue
		}
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// selfTime is a parent span's duration minus the part of it its children
// cover (the union of the children clipped to the parent), together with
// the number of maximal disjoint busy intervals the children form inside
// the parent: the sequential round trips a statement waited for.
func selfTime(parent interval, children []interval) (self int64, rounds int) {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	merged := mergeIntervals(clipped)
	self = parent.end - parent.start
	for _, m := range merged {
		self -= m.end - m.start
	}
	return self, len(merged)
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
