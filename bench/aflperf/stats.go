package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// summary is the order statistics of one metric over repeated
// measurements (windows inside a run, or runs inside a report).
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile distance as a share of the median, the
// number a regression bound is compared against.
func (s summary) spread() float64 {
	if s.N < 2 || vecmath.IsZero(s.Median) {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// summarize returns the median and quartiles of values, using the same
// "exclusive" quantile method as Python's statistics.quantiles(n=4), so
// the spreads printed here are the ones the benchmark driver computes.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{N: len(v)}
	switch len(v) {
	case 0:
		return s
	case 1:
		s.Median, s.Q1, s.Q3 = v[0], v[0], v[0]
		return s
	}
	s.Q1 = exclusiveQuantile(v, 0.25)
	s.Median = exclusiveQuantile(v, 0.5)
	s.Q3 = exclusiveQuantile(v, 0.75)
	return s
}

// exclusiveQuantile interpolates at position q*(n+1) (1-based) in sorted,
// clamped to the sample range.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return sorted[0]
	case j >= n:
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the "percentile" is a handful of outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of sorted by the
// nearest-rank method, or an error when fewer than minBeyond samples lie
// beyond it. Callers fail loudly instead of substituting a lower
// percentile under the same metric name.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", p*100, minBeyond, n, n-rank)
	}
	return sorted[rank-1], nil
}

// maxWindows is how finely a phase is cut at most.
const maxWindows = 10

// windowsFor picks how many equal-time windows a phase of expected
// samples is cut into for the p-th percentile: as many as maxWindows, as
// few as one, such that every window is expected to have a fifth more
// samples beyond the percentile than minBeyond asks for (the margin is
// for a window that happens to get fewer arrivals than its share).
// Many thin windows and the median across them, not one pooled
// percentile: the shared host stalls for 100 ms or more in about one
// run out of three, a stall puts one window's tail out and leaves the
// median window alone, and the median of k windows costs only a quarter
// more noise than the pooled estimate. The cut depends only on the
// workload's fixed rate and the run length, never on measured data, so
// two runs of one configuration always use the same one.
func windowsFor(expected float64, p float64) int {
	k := int(expected * (1 - p) / (1.2 * minBeyond))
	return min(max(k, 1), maxWindows)
}

// windowedPercentile cuts samples (each with the time it was due, ns
// since phase start) into k equal windows over span ns, takes the p-th
// percentile inside each window and returns the per-window values. A
// hiccup then moves one window, not the reported median.
func windowedPercentile(dueNs []int64, values []float64, span int64, k int, p float64) ([]float64, error) {
	buckets := make([][]float64, k)
	for i, d := range dueNs {
		w := int(d * int64(k) / span)
		if w < 0 {
			w = 0
		}
		if w >= k {
			w = k - 1
		}
		buckets[w] = append(buckets[w], values[i])
	}
	out := make([]float64, k)
	for w, b := range buckets {
		sort.Float64s(b)
		v, err := percentile(b, p)
		if err != nil {
			return nil, fmt.Errorf("window %d of %d: %w", w+1, k, err)
		}
		out[w] = v
	}
	return out, nil
}

// verdict classifies one (workload, metric) pair of a comparison.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWithin     verdict = "within"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// compareMetric judges b against a for a metric with the given direction
// and bound (share of a's median). A spread wider than the bound on
// either side cannot resolve a change of that size: the answer is then
// "unresolved", never "unchanged".
func compareMetric(a, b summary, better string, bound float64) (verdict, float64) {
	if vecmath.IsZero(a.Median) {
		return verdictUnresolved, 0
	}
	delta := (b.Median - a.Median) / math.Abs(a.Median)
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	if a.spread() > bound || b.spread() > bound {
		return verdictUnresolved, delta
	}
	switch {
	case worse > bound:
		return verdictWorse, delta
	case worse < -bound:
		return verdictBetter, delta
	}
	return verdictWithin, delta
}
