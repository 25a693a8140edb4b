package stats

import (
	"math"
	"math/rand"
	"testing"
)

// VectorMA.AddAll folds four vectors per pass over the mean; each fold
// step uses the t and 1/(t+1) that Add computes, in the order Add applies
// them, so the mean must be bit-identical to a loop of Add — at every
// vector count mod 4, from an empty and from a non-empty accumulator, and
// through NaN, infinities, -0, subnormals and overflow.

var addAllSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 2.2250738585072e-308, -1e-310, 1e308, -1e308,
}

func addAllVec(r *rand.Rand, n int, special bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		if special && r.Intn(5) == 0 {
			v[i] = addAllSpecials[r.Intn(len(addAllSpecials))]
		}
	}
	return v
}

func TestAddAllMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, special := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 61706} {
			for _, start := range []int{0, 3} {
				for count := 0; count <= 9; count++ {
					blocked, oracle := NewVectorMA(n), NewVectorMA(n)
					for i := 0; i < start; i++ {
						x := addAllVec(r, n, special)
						blocked.Add(x)
						oracle.Add(x)
					}
					xs := make([][]float64, count)
					for k := range xs {
						xs[k] = addAllVec(r, n, special)
					}
					blocked.AddAll(xs)
					for _, x := range xs {
						oracle.Add(x)
					}
					if blocked.Count() != oracle.Count() {
						t.Fatalf("special=%v n=%d start=%d count=%d: Count %d, want %d",
							special, n, start, count, blocked.Count(), oracle.Count())
					}
					for i, got := range blocked.Mean() {
						// Any two NaNs match: which operand's NaN an add
						// propagates is the compiler's choice, not Add's.
						if want := oracle.Mean()[i]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
							t.Fatalf("special=%v n=%d start=%d count=%d: mean[%d] = %v (%#x), Add loop = %v (%#x)",
								special, n, start, count, i, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

func TestAddAllPanicsOnDimMismatch(t *testing.T) {
	for _, bad := range []int{1, 4} { // inside the first block; in the remainder
		t.Run("", func(t *testing.T) {
			xs := make([][]float64, 5)
			for k := range xs {
				xs[k] = make([]float64, 3)
			}
			xs[bad] = make([]float64, 2)
			defer func() {
				if recover() == nil {
					t.Errorf("vector %d of the wrong dim: no panic", bad)
				}
			}()
			NewVectorMA(3).AddAll(xs)
		})
	}
}
