package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// The blocked kernels (Distances, AXPYs) must give, bit for bit, what a
// loop of their one-vector kernels gives: every output sees the same
// operations in the same order, only independent outputs are interleaved.
// These tests hold them to that with the one-vector kernels as the oracle,
// at every vector count mod 4 and at lengths short enough to leave a
// block empty as well as at LeNet-5 size.

// specials are the values where a reordered or fused operation would
// show first: NaN and infinities propagate, -0 keeps its sign only
// through the exact operation sequence, subnormals and 1e308 round and
// overflow differently when an intermediate changes.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 2.2250738585072e-308, -1e-310, 1e308, -1e308, 1, -1,
}

// blockedLens are the vector lengths every blocked kernel is tried at.
var blockedLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 61706}

// mixedVec is a random vector with a sprinkling of special values; with
// special false it is plain normal noise.
func mixedVec(r *rand.Rand, n int, special bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		if special && r.Intn(5) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
	return v
}

// sameBits is bit equality, except that any two NaNs match: IEEE 754
// leaves open which operand's NaN a two-NaN operation propagates, and the
// compiler may swap the operands of a commutative add, so even two
// builds of the one-vector kernel may differ in a NaN's payload. Every
// other result, -0 and the infinities included, must match exactly.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestDistancesMatchesDistance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, special := range []bool{false, true} {
		for _, n := range blockedLens {
			for count := 0; count <= 9; count++ {
				ref := mixedVec(r, n, special)
				xs := make([][]float64, count)
				for k := range xs {
					xs[k] = mixedVec(r, n, special)
				}
				out := make([]float64, count)
				Distances(out, ref, xs)
				for k, x := range xs {
					if want := Distance(ref, x); !sameBits(out[k], want) {
						t.Fatalf("special=%v n=%d count=%d: out[%d] = %v (%#x), Distance = %v (%#x)",
							special, n, count, k, out[k], math.Float64bits(out[k]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestAXPYsMatchesAXPY(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, special := range []bool{false, true} {
		for _, n := range blockedLens {
			for count := 0; count <= 9; count++ {
				dst := mixedVec(r, n, special)
				want := Clone(dst)
				alphas := mixedVec(r, count, special)
				xs := make([][]float64, count)
				for k := range xs {
					xs[k] = mixedVec(r, n, special)
				}
				AXPYs(dst, alphas, xs)
				for k, x := range xs {
					AXPY(want, alphas[k], x)
				}
				for i := range dst {
					if !sameBits(dst[i], want[i]) {
						t.Fatalf("special=%v n=%d count=%d: dst[%d] = %v (%#x), AXPY loop = %v (%#x)",
							special, n, count, i, dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// A length mismatch is a programming error wherever it sits: in a full
// block, in the remainder, or between the outputs and the inputs.
func TestBlockedKernelsPanicOnMismatch(t *testing.T) {
	vecs := func(count, bad int) [][]float64 {
		xs := make([][]float64, count)
		for k := range xs {
			xs[k] = make([]float64, 5)
		}
		if bad >= 0 {
			xs[bad] = make([]float64, 4)
		}
		return xs
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Distances block", func() { Distances(make([]float64, 6), make([]float64, 5), vecs(6, 2)) }},
		{"Distances remainder", func() { Distances(make([]float64, 6), make([]float64, 5), vecs(6, 5)) }},
		{"Distances out", func() { Distances(make([]float64, 5), make([]float64, 5), vecs(6, -1)) }},
		{"AXPYs block", func() { AXPYs(make([]float64, 5), make([]float64, 6), vecs(6, 3)) }},
		{"AXPYs remainder", func() { AXPYs(make([]float64, 5), make([]float64, 6), vecs(6, 4)) }},
		{"AXPYs alphas", func() { AXPYs(make([]float64, 5), make([]float64, 7), vecs(6, -1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}
