// Package vecmath provides dense float64 vector kernels used throughout the
// federated-learning stack: model parameters, gradients, and client updates
// are all represented as flat []float64 vectors.
//
// All functions that write into a destination slice require the destination
// to have the correct length and panic otherwise; length mismatches are
// programming errors, not runtime conditions, so they are not reported as
// errors. Allocation-free variants (Add, AXPY, ...) are preferred on hot
// paths; convenience variants (Added, Scaled, ...) allocate.
//
// # NaN policy
//
// Arithmetic kernels follow IEEE 754: a NaN or Inf in the input
// propagates into sums, norms, distances and means rather than being
// masked (Sum of +Inf and -Inf is NaN, and so on). Nothing in this
// package screens its inputs. Updates arriving off the wire are screened
// once at admission, after which the pipeline assumes finite data: the
// transport server's binary decoder checks while it copies the slab, its
// gob path calls AllFinite, and the topology root calls AllFinite on each
// update of an edge batch. A non-finite update is dropped as malformed. Order-comparison helpers inherit IEEE comparison
// semantics, where every comparison against NaN is false; the resulting
// per-function behavior is documented on ArgMin, ArgMax and EqualApprox.
package vecmath

import (
	"fmt"
	"math"
)

// checkLen panics when two vectors participating in an element-wise
// operation have different lengths.
func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("vecmath: %s: length mismatch %d != %d", op, a, b))
	}
}

// Clone returns a copy of v. Clone(nil) returns nil.
func Clone(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// Add stores a + b into dst. dst may alias a or b.
func Add(dst, a, b []float64) {
	checkLen("Add", len(a), len(b))
	checkLen("Add", len(dst), len(a))
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// Added returns a new vector a + b.
func Added(a, b []float64) []float64 {
	dst := make([]float64, len(a))
	Add(dst, a, b)
	return dst
}

// Sub stores a - b into dst. dst may alias a or b.
func Sub(dst, a, b []float64) {
	checkLen("Sub", len(a), len(b))
	checkLen("Sub", len(dst), len(a))
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// Subbed returns a new vector a - b.
func Subbed(a, b []float64) []float64 {
	dst := make([]float64, len(a))
	Sub(dst, a, b)
	return dst
}

// Scale stores c*a into dst. dst may alias a.
func Scale(dst []float64, c float64, a []float64) {
	checkLen("Scale", len(dst), len(a))
	for i := range a {
		dst[i] = c * a[i]
	}
}

// Scaled returns a new vector c*a.
func Scaled(c float64, a []float64) []float64 {
	dst := make([]float64, len(a))
	Scale(dst, c, a)
	return dst
}

// AXPY performs dst += alpha*x, the classic BLAS update.
func AXPY(dst []float64, alpha float64, x []float64) {
	checkLen("AXPY", len(dst), len(x))
	for i := range x {
		dst[i] += alpha * x[i]
	}
}

// AXPYs performs dst += alphas[k]*xs[k] for every k in order: a loop of
// AXPY calls, bit for bit, that loads and stores dst once per four
// vectors. Each dst[i] receives the same additions in the same order, so
// only the memory traffic changes. dst must not alias any of xs.
func AXPYs(dst []float64, alphas []float64, xs [][]float64) {
	checkLen("AXPYs", len(alphas), len(xs))
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		a0, a1, a2, a3 := alphas[k], alphas[k+1], alphas[k+2], alphas[k+3]
		x0, x1, x2, x3 := xs[k], xs[k+1], xs[k+2], xs[k+3]
		for _, x := range [...][]float64{x0, x1, x2, x3} {
			checkLen("AXPYs", len(dst), len(x))
		}
		x0, x1, x2, x3 = x0[:len(dst)], x1[:len(dst)], x2[:len(dst)], x3[:len(dst)]
		for i, d := range dst {
			d += a0 * x0[i]
			d += a1 * x1[i]
			d += a2 * x2[i]
			d += a3 * x3[i]
			dst[i] = d
		}
	}
	for ; k < len(xs); k++ {
		AXPY(dst, alphas[k], xs[k])
	}
}

// Mul stores the element-wise product a*b into dst.
func Mul(dst, a, b []float64) {
	checkLen("Mul", len(a), len(b))
	checkLen("Mul", len(dst), len(a))
	for i := range a {
		dst[i] = a[i] * b[i]
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	checkLen("Dot", len(a), len(b))
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// SquaredNorm2 returns the squared Euclidean norm of v.
func SquaredNorm2(v []float64) float64 {
	return Dot(v, v)
}

// Distance returns the Euclidean distance between a and b.
func Distance(a, b []float64) float64 {
	checkLen("Distance", len(a), len(b))
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Distances stores Distance(ref, xs[k]) into out[k] for every k. It reads
// ref once per four vectors and keeps four independent sums; each sum
// adds the same squared differences in the same order Distance does, so
// the results are bit-identical to a loop of Distance calls.
func Distances(out, ref []float64, xs [][]float64) {
	checkLen("Distances", len(out), len(xs))
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		x0, x1, x2, x3 := xs[k], xs[k+1], xs[k+2], xs[k+3]
		for _, x := range [...][]float64{x0, x1, x2, x3} {
			checkLen("Distances", len(ref), len(x))
		}
		x0, x1, x2, x3 = x0[:len(ref)], x1[:len(ref)], x2[:len(ref)], x3[:len(ref)]
		var s0, s1, s2, s3 float64
		for i, r := range ref {
			d0 := r - x0[i]
			d1 := r - x1[i]
			d2 := r - x2[i]
			d3 := r - x3[i]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		out[k], out[k+1], out[k+2], out[k+3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
	}
	for ; k < len(xs); k++ {
		out[k] = Distance(ref, xs[k])
	}
}

// SquaredDistance returns the squared Euclidean distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	checkLen("SquaredDistance", len(a), len(b))
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Cosine returns the cosine similarity of a and b, in [-1, 1]. When either
// vector has zero norm the similarity is defined as 0.
func Cosine(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if IsZero(na) || IsZero(nb) {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	// Guard against floating-point drift just outside [-1, 1].
	return math.Max(-1, math.Min(1, c))
}

// Normalize stores v/||v||2 into dst; if ||v||2 == 0 dst is zeroed.
func Normalize(dst, v []float64) {
	checkLen("Normalize", len(dst), len(v))
	n := Norm2(v)
	if IsZero(n) {
		Fill(dst, 0)
		return
	}
	Scale(dst, 1/n, v)
}

// ClipNorm scales v in place so that ||v||2 <= maxNorm. Vectors already
// within the bound are untouched. maxNorm must be positive.
func ClipNorm(v []float64, maxNorm float64) {
	if maxNorm <= 0 {
		panic("vecmath: ClipNorm: maxNorm must be positive")
	}
	n := Norm2(v)
	if n > maxNorm {
		Scale(v, maxNorm/n, v)
	}
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v. Mean of an empty vector is 0.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Variance returns the population variance of v (0 for len < 2).
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	return math.Sqrt(Variance(v))
}

// MeanVector stores the element-wise mean of vs into dst. All vectors must
// share dst's length, and vs must be non-empty.
func MeanVector(dst []float64, vs [][]float64) {
	if len(vs) == 0 {
		panic("vecmath: MeanVector: empty input")
	}
	Fill(dst, 0)
	for _, v := range vs {
		Add(dst, dst, v)
	}
	Scale(dst, 1/float64(len(vs)), dst)
}

// StdVector stores the element-wise population standard deviation of vs
// into dst. mean must already hold the element-wise mean.
func StdVector(dst, mean []float64, vs [][]float64) {
	if len(vs) == 0 {
		panic("vecmath: StdVector: empty input")
	}
	checkLen("StdVector", len(dst), len(mean))
	Fill(dst, 0)
	for _, v := range vs {
		checkLen("StdVector", len(v), len(mean))
		for i := range v {
			d := v[i] - mean[i]
			dst[i] += d * d
		}
	}
	inv := 1 / float64(len(vs))
	for i := range dst {
		dst[i] = math.Sqrt(dst[i] * inv)
	}
}

// WeightedMeanVector stores sum_i w[i]*vs[i] / sum_i w[i] into dst. The
// weights must not sum to zero.
func WeightedMeanVector(dst []float64, vs [][]float64, w []float64) {
	if len(vs) == 0 {
		panic("vecmath: WeightedMeanVector: empty input")
	}
	checkLen("WeightedMeanVector", len(vs), len(w))
	total := Sum(w)
	if IsZero(total) {
		panic("vecmath: WeightedMeanVector: weights sum to zero")
	}
	Fill(dst, 0)
	for i, v := range vs {
		AXPY(dst, w[i], v)
	}
	Scale(dst, 1/total, dst)
}

// ArgMin returns the index of the smallest element of v (-1 for empty v).
// Ties resolve to the lowest index. NaN elements are never selected over a
// later finite element (NaN comparisons are false), but a NaN at index 0
// is returned when no later element compares smaller — screen with
// AllFinite when the input may contain NaN.
func ArgMin(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element of v (-1 for empty v).
// Ties resolve to the lowest index. NaN handling mirrors ArgMin: a NaN at
// index 0 wins by default, later NaNs never do.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Min returns the smallest element of v. It panics on an empty vector.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("vecmath: Min: empty vector")
	}
	return v[ArgMin(v)]
}

// Max returns the largest element of v. It panics on an empty vector.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("vecmath: Max: empty vector")
	}
	return v[ArgMax(v)]
}

// AllFinite reports whether every element of v is finite (no NaN or Inf).
// It runs without branches: x - x is +0 for a finite x and NaN for NaN
// and ±Inf, so the four sums stay zero exactly when v is finite (four, so
// no add waits on the one before it).
func AllFinite(v []float64) bool {
	var s0, s1, s2, s3 float64
	for ; len(v) >= 4; v = v[4:] {
		s0 += v[0] - v[0]
		s1 += v[1] - v[1]
		s2 += v[2] - v[2]
		s3 += v[3] - v[3]
	}
	for _, x := range v {
		s0 += x - x
	}
	return IsZero(s0 + s1 + s2 + s3)
}

// IsZero reports whether x is exactly zero. It exists so that the
// deliberate bit-exact comparisons in this codebase — guarding a division
// by an exactly-zero norm, skipping an empty accumulator — are spelled as
// intent rather than a bare == that afllint's floateq check would
// (rightly) treat as a suspected bug.
func IsZero(x float64) bool {
	return x == 0
}

// ExactEqual reports whether a and b are bit-equal floats (with the usual
// IEEE caveats: NaN != NaN, -0 == +0). Like IsZero it names the rare
// cases where exact float equality is the point, e.g. checkpoint
// round-trip verification.
func ExactEqual(a, b float64) bool {
	return a == b
}

// EqualApprox reports whether a and b have equal lengths and all elements
// within tol of each other. A NaN in either vector makes the pair unequal
// (|a-b| is NaN, which is not <= tol) — two vectors are never "approximately
// equal" through NaN.
func EqualApprox(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.Abs(a[i]-b[i]) <= tol) {
			return false
		}
	}
	return true
}
