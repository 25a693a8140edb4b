// Package stats provides the online statistics and evaluation metrics used
// by the filters and the experiment harness: Welford mean/variance
// accumulators, cumulative vector moving averages (AsyncFilter's per-group
// estimator), quantiles, and detection confusion matrices.
//
// # NaN policy
//
// Accumulators do not screen their inputs: folding a NaN into a Welford,
// VectorMA or EWMA permanently poisons the running state (every later
// Mean/Variance read is NaN), matching IEEE propagation in vecmath. The
// pipeline guards against this once, at update admission, with
// vecmath.AllFinite. Quantile's result is unspecified when values contain
// NaN (sort order of NaN is not meaningful); screen first.
package stats

import (
	"fmt"
	"math"
	"sort"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Welford accumulates mean and variance online in a numerically stable way.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds a new observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// VectorMA is a cumulative moving average over vectors, the estimator
// AsyncFilter maintains per staleness group (paper Eq. 5):
//
//	MA <- t/(t+1) * MA + 1/(t+1) * x
//
// where t is the number of vectors folded in so far.
type VectorMA struct {
	mean  []float64
	count int
}

// NewVectorMA builds an empty moving average for vectors of length dim.
func NewVectorMA(dim int) *VectorMA {
	return &VectorMA{mean: make([]float64, dim)}
}

// Add folds a vector into the average. The vector length must match.
func (m *VectorMA) Add(x []float64) {
	if len(x) != len(m.mean) {
		panic(fmt.Sprintf("stats: VectorMA.Add: dim %d != %d", len(x), len(m.mean)))
	}
	t := float64(m.count)
	inv := 1 / (t + 1)
	for i := range m.mean {
		m.mean[i] = m.mean[i]*t*inv + x[i]*inv
	}
	m.count++
}

// AddAll folds the vectors into the average in order: a loop of Add, bit
// for bit, that reads and writes the mean once per four vectors. Each
// fold step uses the t and 1/(t+1) that Add would, in the order Add
// would apply them. Every length is checked before the mean is touched.
func (m *VectorMA) AddAll(xs [][]float64) {
	for _, x := range xs {
		if len(x) != len(m.mean) {
			panic(fmt.Sprintf("stats: VectorMA.AddAll: dim %d != %d", len(x), len(m.mean)))
		}
	}
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		t0, t1, t2, t3 := float64(m.count), float64(m.count+1), float64(m.count+2), float64(m.count+3)
		inv0, inv1, inv2, inv3 := 1/(t0+1), 1/(t1+1), 1/(t2+1), 1/(t3+1)
		x0, x1, x2, x3 := xs[k][:len(m.mean)], xs[k+1][:len(m.mean)], xs[k+2][:len(m.mean)], xs[k+3][:len(m.mean)]
		for i, v := range m.mean {
			v = v*t0*inv0 + x0[i]*inv0
			v = v*t1*inv1 + x1[i]*inv1
			v = v*t2*inv2 + x2[i]*inv2
			v = v*t3*inv3 + x3[i]*inv3
			m.mean[i] = v
		}
		m.count += 4
	}
	for ; k < len(xs); k++ {
		m.Add(xs[k])
	}
}

// Mean returns the current average. The returned slice is owned by the
// accumulator; callers must not mutate it. It is nil-safe only for reading:
// before any Add the mean is the zero vector.
func (m *VectorMA) Mean() []float64 { return m.mean }

// Merge folds another accumulator into this one. Because the cumulative
// moving average is a count-weighted mean of its observations, the merge
// is exact: the result equals the average this accumulator would hold had
// it also seen every vector folded into o, in any interleaving. This is
// what lets a root aggregator combine per-edge group estimators into the
// global view a single server would have computed. o is left untouched.
func (m *VectorMA) Merge(o *VectorMA) {
	if len(o.mean) != len(m.mean) {
		panic(fmt.Sprintf("stats: VectorMA.Merge: dim %d != %d", len(o.mean), len(m.mean)))
	}
	if o.count == 0 {
		return
	}
	total := float64(m.count + o.count)
	wm := float64(m.count) / total
	wo := float64(o.count) / total
	for i := range m.mean {
		m.mean[i] = m.mean[i]*wm + o.mean[i]*wo
	}
	m.count += o.count
}

// Count returns the number of vectors folded in.
func (m *VectorMA) Count() int { return m.count }

// RestoreVectorMA rebuilds a VectorMA from a snapshotted mean and count
// (server checkpoint restore). The mean slice is copied; count must be
// non-negative.
func RestoreVectorMA(mean []float64, count int) (*VectorMA, error) {
	if count < 0 {
		return nil, fmt.Errorf("stats: RestoreVectorMA: count = %d, need >= 0", count)
	}
	return &VectorMA{mean: append([]float64(nil), mean...), count: count}, nil
}

// EWMA is an exponentially weighted moving average over vectors, an
// alternative group estimator exercised by the ablation benches.
type EWMA struct {
	mean  []float64
	alpha float64
	seen  bool
}

// NewEWMA builds an EWMA with smoothing factor alpha in (0, 1]; the first
// observation initializes the mean directly.
func NewEWMA(dim int, alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("stats: NewEWMA: alpha = %v, need (0, 1]", alpha)
	}
	return &EWMA{mean: make([]float64, dim), alpha: alpha}, nil
}

// Add folds a vector into the average.
func (e *EWMA) Add(x []float64) {
	if len(x) != len(e.mean) {
		panic("stats: EWMA.Add: dimension mismatch")
	}
	if !e.seen {
		copy(e.mean, x)
		e.seen = true
		return
	}
	for i := range e.mean {
		e.mean[i] = (1-e.alpha)*e.mean[i] + e.alpha*x[i]
	}
}

// Mean returns the current average (zero vector before any Add). The
// returned slice is owned by the accumulator.
func (e *EWMA) Mean() []float64 { return e.mean }

// RestoreEWMA rebuilds an EWMA from a snapshotted mean (server checkpoint
// restore). seen records whether the average has absorbed at least one
// observation; when false the next Add initializes the mean directly.
func RestoreEWMA(mean []float64, alpha float64, seen bool) (*EWMA, error) {
	e, err := NewEWMA(len(mean), alpha)
	if err != nil {
		return nil, err
	}
	copy(e.mean, mean)
	e.seen = seen
	return e, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation. It panics on empty input or out-of-range q.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		panic("stats: Quantile: empty input")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile: q = %v out of [0,1]", q))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(values []float64) float64 { return Quantile(values, 0.5) }

// MedianInPlace is Median for a caller that owns values and does not need
// their order kept: it sorts them where they are instead of copying them.
func MedianInPlace(values []float64) float64 {
	if len(values) == 0 {
		panic("stats: MedianInPlace: empty input")
	}
	sort.Float64s(values)
	return quantileSorted(values, 0.5)
}

// Confusion is a binary detection confusion matrix for poisoned-update
// detection: "positive" means flagged as malicious.
type Confusion struct {
	// TP counts malicious updates rejected, FP benign updates rejected,
	// TN benign updates accepted, FN malicious updates accepted.
	TP, FP, TN, FN int
}

// Observe records one filtering decision.
func (c *Confusion) Observe(malicious, flagged bool) {
	switch {
	case malicious && flagged:
		c.TP++
	case malicious && !flagged:
		c.FN++
	case !malicious && flagged:
		c.FP++
	default:
		c.TN++
	}
}

// Merge folds another confusion matrix into this one.
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Precision returns TP / (TP + FP), or 0 when nothing was flagged.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 0 when nothing was malicious.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR returns FP / (FP + TN), the benign rejection rate.
func (c *Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if vecmath.IsZero(p + r) {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Total returns the number of observations.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// String implements fmt.Stringer.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d precision=%.3f recall=%.3f fpr=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.FPR())
}

// MeanStd returns the mean and population standard deviation of values,
// (0, 0) for empty input.
func MeanStd(values []float64) (mean, std float64) {
	var w Welford
	for _, v := range values {
		w.Add(v)
	}
	return w.Mean(), w.StdDev()
}
