package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/asyncfl/asyncfilter/internal/randx"
)

func TestWelfordMatchesDirect(t *testing.T) {
	values := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, v := range values {
		w.Add(v)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", w.Variance())
	}
	if math.Abs(w.StdDev()-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", w.StdDev())
	}
	if math.Abs(w.SampleVariance()-32.0/7) > 1e-12 {
		t.Errorf("SampleVariance = %v, want %v", w.SampleVariance(), 32.0/7)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty Welford should report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 || w.SampleVariance() != 0 {
		t.Error("single-value Welford wrong")
	}
}

func TestVectorMAMatchesBatchMean(t *testing.T) {
	r := randx.New(1)
	ma := NewVectorMA(4)
	sum := make([]float64, 4)
	const n = 17
	for i := 0; i < n; i++ {
		v := randx.NormalVector(r, 4, 1, 2)
		ma.Add(v)
		for j := range sum {
			sum[j] += v[j]
		}
	}
	if ma.Count() != n {
		t.Errorf("Count = %d, want %d", ma.Count(), n)
	}
	for j, m := range ma.Mean() {
		if math.Abs(m-sum[j]/n) > 1e-9 {
			t.Errorf("Mean[%d] = %v, want %v", j, m, sum[j]/n)
		}
	}
}

func TestVectorMADimensionPanic(t *testing.T) {
	ma := NewVectorMA(2)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	ma.Add([]float64{1})
}

func TestEWMA(t *testing.T) {
	e, err := NewEWMA(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.Add([]float64{10})
	if e.Mean()[0] != 10 {
		t.Errorf("first Add should initialize: %v", e.Mean())
	}
	e.Add([]float64{0})
	if math.Abs(e.Mean()[0]-5) > 1e-12 {
		t.Errorf("EWMA = %v, want 5", e.Mean()[0])
	}
	if _, err := NewEWMA(1, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewEWMA(1, 1.5); err == nil {
		t.Error("alpha>1 accepted")
	}
}

func TestQuantile(t *testing.T) {
	values := []float64{3, 1, 2, 4}
	if got := Quantile(values, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(values, 1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	if got := Median(values); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Input must not be mutated.
	if values[0] != 3 {
		t.Error("Quantile sorted its input in place")
	}
}

// MedianInPlace is Median bit for bit, odd and even lengths, duplicates
// included; it may reorder its input and must not allocate.
func TestMedianInPlaceMatchesMedian(t *testing.T) {
	for _, values := range [][]float64{
		{7}, {3, 1}, {3, 1, 2}, {3, 1, 2, 4}, {0.1, 0.3, 0.3, 0.7, 1e-9}, {5, 5, 5, 5},
	} {
		want := Median(values)
		scratch := append([]float64(nil), values...)
		var got float64
		if allocs := testing.AllocsPerRun(10, func() { got = MedianInPlace(scratch) }); allocs != 0 {
			t.Errorf("MedianInPlace(%v) allocates %v times", values, allocs)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("MedianInPlace(%v) = %v, Median = %v", values, got, want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { Quantile(nil, 0.5) }},
		{"median in place, empty", func() { MedianInPlace(nil) }},
		{"q<0", func() { Quantile([]float64{1}, -0.1) }},
		{"q>1", func() { Quantile([]float64{1}, 1.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Observe(true, true)   // TP
	c.Observe(true, true)   // TP
	c.Observe(true, false)  // FN
	c.Observe(false, true)  // FP
	c.Observe(false, false) // TN
	c.Observe(false, false) // TN

	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("counts: %+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", c.Recall())
	}
	if math.Abs(c.FPR()-1.0/3) > 1e-12 {
		t.Errorf("FPR = %v", c.FPR())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v", c.F1())
	}
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}

func TestConfusionZeroDenominators(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.FPR() != 0 || c.F1() != 0 {
		t.Error("empty confusion should report zeros, not NaN")
	}
}

func TestConfusionMerge(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	b := Confusion{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Merge(b)
	if a.TP != 11 || a.FP != 22 || a.TN != 33 || a.FN != 44 {
		t.Errorf("merged: %+v", a)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{1, 3})
	if mean != 2 || std != 1 {
		t.Errorf("MeanStd = %v, %v", mean, std)
	}
	mean, std = MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Errorf("MeanStd(nil) = %v, %v", mean, std)
	}
}

func TestPropertyWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := randx.New(seed)
		var w Welford
		values := make([]float64, n)
		var sum float64
		for i := range values {
			values[i] = r.NormFloat64() * 100
			w.Add(values[i])
			sum += values[i]
		}
		mean := sum / float64(n)
		var v float64
		for _, x := range values {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n)
		return math.Abs(w.Mean()-mean) < 1e-8 && math.Abs(w.Variance()-v) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		r := randx.New(seed)
		values := make([]float64, n)
		for i := range values {
			values[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			cur := Quantile(values, q)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
