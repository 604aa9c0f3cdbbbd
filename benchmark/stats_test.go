package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0, 10}, {1, 100},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailQuantileNeedsThousandSamples(t *testing.T) {
	s := make([]float64, minTailSamples-1)
	for i := range s {
		s[i] = float64(i)
	}
	if _, ok := tailQuantile(s, 0.99); ok {
		t.Errorf("p99 reported from %d samples", len(s))
	}
	s = append(s, float64(len(s)))
	got, ok := tailQuantile(s, 0.99)
	if !ok || got != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989 with ten samples beyond it", got, ok)
	}
}

// The expected values are statistics.quantiles(values, n=4) from Python.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		values         []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 8}, 2, 7, 9},
		{[]float64{4, 8}, 3, 6, 9}, // extrapolates past both ends, as Python does
	} {
		want := (c.q3 - c.q1) / c.median
		if got := quartileSpread(c.values); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.values, got, want)
		}
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]interval{{50, 60}, {0, 10}, {5, 20}, {20, 30}, {40, 40}, {55, 58}})
	want := []interval{{0, 30}, {50, 60}}
	if len(got) != len(want) {
		t.Fatalf("merged to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged to %v, want %v", got, want)
		}
	}
}

func TestSelfTimeAndRounds(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		self     int64
		rounds   int
	}{
		{"no children", nil, 100, 0},
		{"two parallel calls are one round", []interval{{110, 150}, {120, 160}}, 50, 1},
		{"two sequential rounds of parallel calls", []interval{{110, 130}, {112, 128}, {150, 180}, {151, 179}}, 50, 2},
		{"a child outliving its parent is clipped", []interval{{190, 250}}, 90, 1},
		{"a child covering the parent leaves nothing", []interval{{90, 210}}, 0, 1},
	} {
		self, rounds := selfTime(parent, c.children)
		if self != c.self || rounds != c.rounds {
			t.Errorf("%s: self %d rounds %d, want %d and %d", c.name, self, rounds, c.self, c.rounds)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	errRate := metricDef{Name: "error_rate", Better: "lower", Bound: 0}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center}
	}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"within the bound", lower, steady(100), steady(105), verdictUnchanged},
		{"slower beyond the bound", lower, steady(100), steady(120), verdictRegressed},
		{"faster beyond the bound", lower, steady(100), steady(80), verdictImproved},
		{"less throughput", higher, steady(100), steady(80), verdictRegressed},
		{"more throughput", higher, steady(100), steady(120), verdictImproved},
		{"spread wider than the bound", lower, []float64{60, 80, 100, 120, 140}, steady(100), verdictUnresolved},
		{"single runs have no spread", lower, []float64{100}, []float64{104}, verdictUnchanged},
		{"any new error regresses", errRate, []float64{0, 0}, []float64{0.001, 0.001}, verdictRegressed},
		{"no errors either side", errRate, []float64{0}, []float64{0}, verdictUnchanged},
	} {
		if got, _, _ := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
