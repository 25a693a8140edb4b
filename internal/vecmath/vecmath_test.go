package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestZerosAndClone(t *testing.T) {
	v := []float64{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliased its input: v[0] = %v", v[0])
	}
	if Clone(nil) != nil {
		t.Errorf("Clone(nil) != nil")
	}
}

func TestFill(t *testing.T) {
	v := make([]float64, 3)
	Fill(v, 2.5)
	for i, x := range v {
		if x != 2.5 {
			t.Errorf("Fill: v[%d] = %v, want 2.5", i, x)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}

	if got := Added(a, b); !EqualApprox(got, []float64{5, 7, 9}, 0) {
		t.Errorf("Added = %v", got)
	}
	if got := Subbed(b, a); !EqualApprox(got, []float64{3, 3, 3}, 0) {
		t.Errorf("Subbed = %v", got)
	}
	if got := Scaled(2, a); !EqualApprox(got, []float64{2, 4, 6}, 0) {
		t.Errorf("Scaled = %v", got)
	}

	// Aliased destination.
	dst := Clone(a)
	Add(dst, dst, b)
	if !EqualApprox(dst, []float64{5, 7, 9}, 0) {
		t.Errorf("aliased Add = %v", dst)
	}
}

func TestAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	Add(make([]float64, 2), []float64{1, 2}, []float64{1})
}

func TestAXPY(t *testing.T) {
	dst := []float64{1, 1, 1}
	AXPY(dst, 2, []float64{1, 2, 3})
	if !EqualApprox(dst, []float64{3, 5, 7}, 0) {
		t.Errorf("AXPY = %v", dst)
	}
}

func TestMul(t *testing.T) {
	dst := make([]float64, 3)
	Mul(dst, []float64{1, 2, 3}, []float64{4, 5, 6})
	if !EqualApprox(dst, []float64{4, 10, 18}, 0) {
		t.Errorf("Mul = %v", dst)
	}
}

func TestDotAndNorms(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Errorf("Dot = %v, want 25", got)
	}
	if got := Norm2(a); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := SquaredNorm2(a); got != 25 {
		t.Errorf("SquaredNorm2 = %v, want 25", got)
	}
}

func TestDistance(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := Distance(a, b); got != 5 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := SquaredDistance(a, b); got != 25 {
		t.Errorf("SquaredDistance = %v, want 25", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{1, 0}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Cosine parallel = %v, want 1", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{-1, 0}); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Cosine antiparallel = %v, want -1", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Cosine orthogonal = %v, want 0", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("Cosine with zero vector = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	u := make([]float64, 2)
	Normalize(u, []float64{3, 4})
	if !almostEqual(Norm2(u), 1, 1e-12) {
		t.Errorf("Normalize norm = %v, want 1", Norm2(u))
	}
}

func TestClipNorm(t *testing.T) {
	v := []float64{3, 4}
	ClipNorm(v, 1)
	if !almostEqual(Norm2(v), 1, 1e-12) {
		t.Errorf("ClipNorm norm = %v, want 1", Norm2(v))
	}
	w := []float64{0.3, 0.4}
	ClipNorm(w, 1)
	if !EqualApprox(w, []float64{0.3, 0.4}, 0) {
		t.Errorf("ClipNorm modified in-bound vector: %v", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ClipNorm with non-positive bound did not panic")
		}
	}()
	ClipNorm(v, 0)
}

func TestSumMeanVarianceStd(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := Sum(v); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := Mean(v); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Variance(v); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if got := StdDev(v); !almostEqual(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
}

func TestMeanVector(t *testing.T) {
	vs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	dst := make([]float64, 2)
	MeanVector(dst, vs)
	if !EqualApprox(dst, []float64{3, 4}, 1e-12) {
		t.Errorf("MeanVector = %v, want [3 4]", dst)
	}
}

func TestStdVector(t *testing.T) {
	vs := [][]float64{{0, 2}, {2, 2}}
	mean := make([]float64, 2)
	MeanVector(mean, vs)
	dst := make([]float64, 2)
	StdVector(dst, mean, vs)
	if !EqualApprox(dst, []float64{1, 0}, 1e-12) {
		t.Errorf("StdVector = %v, want [1 0]", dst)
	}
}

func TestWeightedMeanVector(t *testing.T) {
	vs := [][]float64{{0, 0}, {4, 8}}
	dst := make([]float64, 2)
	WeightedMeanVector(dst, vs, []float64{3, 1})
	if !EqualApprox(dst, []float64{1, 2}, 1e-12) {
		t.Errorf("WeightedMeanVector = %v, want [1 2]", dst)
	}
}

func TestArgMinMax(t *testing.T) {
	v := []float64{2, -1, 5, -1}
	if got := ArgMin(v); got != 1 {
		t.Errorf("ArgMin = %d, want 1 (first tie)", got)
	}
	if got := ArgMax(v); got != 2 {
		t.Errorf("ArgMax = %d, want 2", got)
	}
	if got := ArgMin(nil); got != -1 {
		t.Errorf("ArgMin(nil) = %d, want -1", got)
	}
	if got := Min(v); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(v); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("AllFinite(finite) = false")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("AllFinite(NaN) = true")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite(Inf) = true")
	}
}

func TestEqualApprox(t *testing.T) {
	if !EqualApprox([]float64{1, 2}, []float64{1.0000001, 2}, 1e-6) {
		t.Error("EqualApprox within tol = false")
	}
	if EqualApprox([]float64{1}, []float64{1, 2}, 1) {
		t.Error("EqualApprox different lengths = true")
	}
	if EqualApprox([]float64{1}, []float64{2}, 0.5) {
		t.Error("EqualApprox outside tol = true")
	}
}

// randomVec draws a bounded random vector so property tests stay in a
// numerically well-conditioned regime.
func randomVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, n), randomVec(r, n)
		return EqualApprox(Added(a, b), Added(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySubAddRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, n), randomVec(r, n)
		return EqualApprox(Added(Subbed(a, b), b), a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomVec(r, n), randomVec(r, n), randomVec(r, n)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, n), randomVec(r, n)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCosineBounded(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		a, b := randomVec(r, n), randomVec(r, n)
		c := Cosine(a, b)
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMeanVectorBetweenMinMax(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%16) + 1
		k := int(kRaw%8) + 1
		r := rand.New(rand.NewSource(seed))
		vs := make([][]float64, k)
		for i := range vs {
			vs[i] = randomVec(r, n)
		}
		mean := make([]float64, n)
		MeanVector(mean, vs)
		for j := 0; j < n; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vs {
				lo = math.Min(lo, v[j])
				hi = math.Max(hi, v[j])
			}
			if mean[j] < lo-1e-9 || mean[j] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyClipNormBound(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		v := randomVec(r, n)
		ClipNorm(v, 2.5)
		return Norm2(v) <= 2.5+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDot(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := randomVec(r, 4096)
	w := randomVec(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(v, w)
	}
}

func BenchmarkAXPY(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := randomVec(r, 4096)
	w := randomVec(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AXPY(v, 0.001, w)
	}
}
