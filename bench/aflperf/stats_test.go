package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestSummarizeMatchesPythonQuantiles pins the quartile method to
// Python's statistics.quantiles(values, n=4), which the benchmark driver
// uses: the spreads printed here must be the ones it computes.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	s := summarize([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if !near(s.Q1, 3.5) || !near(s.Median, 13.5) || !near(s.Q3, 31) || s.N != 10 {
		t.Fatalf("got %+v", s)
	}
	if !near(s.spread(), (31-3.5)/13.5) {
		t.Fatalf("spread %v", s.spread())
	}
	// statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
	s = summarize([]float64{3, 1, 2})
	if !near(s.Q1, 1) || !near(s.Median, 2) || !near(s.Q3, 3) {
		t.Fatalf("got %+v", s)
	}
	if s := summarize([]float64{5}); !near(s.Median, 5) || !near(s.spread(), 0) {
		t.Fatalf("single sample: %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
}

// TestPercentileNeedsSamplesBeyond: a percentile is reported only with
// at least ten samples beyond it, and never silently lowered.
func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 1100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	v, err := percentile(sorted, 0.99)
	if err != nil || !near(v, 1089) {
		t.Fatalf("p99 of 1..1100 = %v, %v", v, err)
	}
	if _, err := percentile(sorted[:1000], 0.99); err != nil {
		t.Fatalf("1000 samples leave exactly 10 beyond p99: %v", err)
	}
	_, err = percentile(sorted[:999], 0.99)
	if err == nil || !strings.Contains(err.Error(), "samples beyond") {
		t.Fatalf("999 samples must not support p99, got %v", err)
	}
	if v, err := percentile(sorted[:21], 0.5); err != nil || !near(v, 11) {
		t.Fatalf("p50 of 1..21 = %v, %v", v, err)
	}
}

func TestWindowsFor(t *testing.T) {
	for _, c := range []struct {
		expected float64
		want     int
	}{{120000, 10}, {12000, 10}, {5760, 4}, {4320, 3}, {1500, 1}, {500, 1}} {
		if got := windowsFor(c.expected, 0.99); got != c.want {
			t.Errorf("windowsFor(%v) = %d, want %d", c.expected, got, c.want)
		}
	}
}

// TestWindowedPercentile: samples are bucketed by the time they were due,
// and one bad window moves one value, not the median.
func TestWindowedPercentile(t *testing.T) {
	const perWindow, windows = 100, 5
	span := int64(windows * 1000)
	var due []int64
	var values []float64
	for w := 0; w < windows; w++ {
		for i := 0; i < perWindow; i++ {
			due = append(due, int64(w*1000+i))
			v := 1.0
			if w == 2 {
				v = 50 // a stall confined to the third window
			}
			values = append(values, v)
		}
	}
	got, err := windowedPercentile(due, values, span, windows, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != windows || !near(got[2], 50) || !near(summarize(got).Median, 1) {
		t.Fatalf("per-window p50 = %v", got)
	}
	if _, err := windowedPercentile(due, values, span, windows, 0.99); err == nil {
		t.Fatal("100 samples per window cannot support p99")
	}
}

// TestOpenLoopDueTimeAccounting: latency counts from the time a request
// was due, so the generator's own lateness is charged, not hidden.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const ms = int64(1e6)
	j := &joined{
		w:     &workloads[0],
		start: 0,
		span:  10 * ms,
		recs: []sendRec{
			{Answered: true, OK: true, Due: 1 * ms, Sent: 1 * ms, Replied: 2 * ms},
			{Answered: true, OK: true, Due: 2 * ms, Sent: 5 * ms, Replied: 6 * ms}, // sent 3 ms late
			{Client: -1, Due: 3 * ms}, // never sent: no latency at all
		},
		commit: []int64{4 * ms, 0, 0},
	}
	_, ack := j.latencies(func(i int) (int64, bool) { return j.recs[i].Replied, j.recs[i].Answered })
	if len(ack) != 2 || !near(ack[0], 1) || !near(ack[1], 4) {
		t.Fatalf("ack latencies from due time = %v, want [1 4]", ack)
	}
	_, com := j.latencies(func(i int) (int64, bool) { return j.commit[i], j.commit[i] != 0 })
	if len(com) != 1 || !near(com[0], 3) {
		t.Fatalf("commit latencies = %v, want [3]", com)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 1000, 0, 2e9)
	b := poissonSchedule(7, 1000, 0, 2e9)
	c := poissonSchedule(8, 1000, 0, 2e9)
	if len(a) != len(b) || len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("%d and %d arrivals at 1000/s over 2 s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedule")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("schedule not sorted")
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestCompareMetric(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	loose := func(m float64) summary { return summary{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 5} }
	for _, c := range []struct {
		name   string
		a, b   summary
		better string
		want   verdict
	}{
		{"throughput up", tight(100), tight(120), "higher", verdictBetter},
		{"throughput down", tight(100), tight(80), "higher", verdictWorse},
		{"latency up", tight(10), tight(12), "lower", verdictWorse},
		{"latency down", tight(10), tight(8), "lower", verdictBetter},
		{"inside the bound", tight(100), tight(95), "higher", verdictWithin},
		{"noisy baseline", loose(100), tight(100), "higher", verdictUnresolved},
		{"noisy change", tight(100), loose(50), "higher", verdictUnresolved},
	} {
		if got, _ := compareMetric(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestMatchRing: the k-th send of a (client, base) key meets the k-th
// stamp at or after it, across a wrapped ring.
func TestMatchRing(t *testing.T) {
	ring := &updateRing{
		// Capacity 4, six stamps written: the two oldest are gone and the
		// oldest survivor sits at index 2.
		Wall:   []int64{50, 60, 30, 40},
		Client: []int32{1, 2, 1, 1},
		Base:   []int64{7, 7, 7, 7},
		Round:  []int32{5, 6, 3, 4},
		N:      6,
	}
	recs := []sendRec{
		{Client: 1, Base: 7, Sent: 35, OK: true}, // -> stamp at 40
		{Client: 1, Base: 7, Sent: 45, OK: true}, // -> stamp at 50
		{Client: 2, Base: 7, Sent: 10, OK: true}, // -> stamp at 60
		{Client: 1, Base: 7, Sent: 55, OK: true}, // nothing left
		{Client: 2, Base: 7, Sent: 11},           // refused: never matched
	}
	got := matchRing(recs, ring, func(*sendRec) bool { return true })
	want := []int32{3, 0, 1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matchRing = %v, want %v", got, want)
		}
	}
}

// TestVoidWindowsAreDiscarded: a window in which the generator ran more
// than one mean gap late is void; the paced numbers come from the windows
// that remain, and the run fails once fewer than a third do.
func TestVoidWindowsAreDiscarded(t *testing.T) {
	const ms = int64(1e6)
	w := &workload{PacedRate: 1000} // mean gap 1 ms; 4 s make three windows
	run := func(lateWindows ...int) *runResult {
		j := &joined{w: w, span: 4000 * ms, recs: make([]sendRec, 4000), commit: make([]int64, 4000)}
		for i := range j.recs {
			due := int64(i) * ms
			r := sendRec{Answered: true, OK: true, Due: due, Sent: due, Replied: due + ms}
			for _, lw := range lateWindows {
				if int(due*3/j.span) == lw {
					r.Sent, r.Replied = due+5*ms, due+55*ms
				}
			}
			j.recs[i] = r
			j.commit[i] = r.Replied + ms
		}
		res := &runResult{Metrics: map[string]metric{}, Phases: map[string]counts{}}
		j.cutPaced(res)
		if err := j.endToEnd(res, true); err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(1)
	if len(res.Problems) != 0 || !near(res.Metrics["loadgen.void_window_share"].Value, 1.0/3) {
		t.Fatalf("one late window of three: %+v, problems %v", res.Metrics["loadgen.void_window_share"], res.Problems)
	}
	if m := res.Metrics["ack_ms_p50"]; !near(m.Value, 1) || !near(res.Metrics["commit_ms_p99"].Value, 2) {
		t.Fatalf("the void window leaked into the numbers: ack p50 %+v", m)
	}
	if !near(res.Metrics["loadgen.late_ms_p99"].Value, 0) {
		t.Fatalf("lateness is the median over all windows: %+v", res.Metrics["loadgen.late_ms_p99"])
	}
	if res := run(0, 1); len(res.Problems) != 0 {
		t.Fatalf("one valid window of three is a third: %v", res.Problems)
	}
	if res := run(0, 1, 2); len(res.Problems) != 1 {
		t.Fatalf("no valid window: problems %v", res.Problems)
	}
}
