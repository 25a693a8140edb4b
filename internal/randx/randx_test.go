package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("generators with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := Split(parent)
	// Consuming the child must not shift the parent's stream.
	ref := New(7)
	Split(ref) // advance by the same single draw used to seed the child
	for i := 0; i < 50; i++ {
		child.Float64()
	}
	for i := 0; i < 50; i++ {
		if parent.Int63() != ref.Int63() {
			t.Fatalf("parent stream shifted by child consumption at draw %d", i)
		}
	}
}

func TestNormalVectorMoments(t *testing.T) {
	r := New(3)
	v := NormalVector(r, 200000, 2, 3)
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	std := math.Sqrt(sq / float64(len(v)))
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("sample mean = %v, want ~2", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Errorf("sample std = %v, want ~3", std)
	}
}

func TestUnitVector(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		v := UnitVector(r, 16)
		var n float64
		for _, x := range v {
			n += x * x
		}
		if math.Abs(math.Sqrt(n)-1) > 1e-9 {
			t.Errorf("unit vector norm = %v, want 1", math.Sqrt(n))
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(5)
	const (
		shape = 2.5
		scale = 1.5
		n     = 100000
	)
	var sum float64
	for i := 0; i < n; i++ {
		sum += Gamma(r, shape, scale)
	}
	mean := sum / n
	want := shape * scale
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("Gamma sample mean = %v, want ~%v", mean, want)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := New(6)
	for i := 0; i < 1000; i++ {
		g := Gamma(r, 0.05, 1)
		if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("Gamma(0.05) produced invalid draw %v", g)
		}
	}
}

func TestGammaPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma with non-positive shape did not panic")
		}
	}()
	Gamma(New(1), 0, 1)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(8)
	for _, alpha := range []float64{0.01, 0.1, 1, 10} {
		p := Dirichlet(r, alpha, 10)
		var sum float64
		for _, x := range p {
			if x < 0 {
				t.Errorf("alpha=%v: negative probability %v", alpha, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("alpha=%v: probabilities sum to %v, want 1", alpha, sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	r := New(9)
	// With tiny alpha most mass should sit on a single category; with huge
	// alpha mass should be nearly uniform. Compare max components.
	var maxSmall, maxLarge float64
	const trials = 200
	for i := 0; i < trials; i++ {
		ps := Dirichlet(r, 0.01, 10)
		pl := Dirichlet(r, 100, 10)
		for _, x := range ps {
			maxSmall += x * x // sum of squares ~ concentration
		}
		for _, x := range pl {
			maxLarge += x * x
		}
	}
	if maxSmall <= maxLarge {
		t.Errorf("alpha=0.01 should concentrate more than alpha=100 (%v vs %v)", maxSmall, maxLarge)
	}
}

func TestDirichletAsymmetric(t *testing.T) {
	r := New(10)
	p := DirichletAsymmetric(r, []float64{1, 2, 3})
	var sum float64
	for _, x := range p {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("asymmetric Dirichlet sums to %v", sum)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 10); err == nil {
		t.Error("NewZipf(s=0) succeeded, want error")
	}
	if _, err := NewZipf(1.2, 0); err == nil {
		t.Error("NewZipf(n=0) succeeded, want error")
	}
}

func TestZipfSampleRangeAndSkew(t *testing.T) {
	z, err := NewZipf(1.2, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := New(11)
	counts := make([]int, 101)
	const n = 50000
	for i := 0; i < n; i++ {
		k := z.Sample(r)
		if k < 1 || k > 100 {
			t.Fatalf("Zipf sample %d out of range [1,100]", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[10] || counts[10] <= counts[100] {
		t.Errorf("Zipf counts not decreasing: c1=%d c10=%d c100=%d", counts[1], counts[10], counts[100])
	}
	// Empirical frequency of rank 1 should approximate the PMF.
	want := z.PMF(1)
	got := float64(counts[1]) / n
	if math.Abs(got-want) > 0.02 {
		t.Errorf("rank-1 frequency = %v, want ~%v", got, want)
	}
}

func TestZipfPMFSumsToOne(t *testing.T) {
	z, err := NewZipf(2.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k := 1; k <= 50; k++ {
		sum += z.PMF(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sums to %v, want 1", sum)
	}
	if z.PMF(0) != 0 || z.PMF(51) != 0 {
		t.Error("PMF outside support should be 0")
	}
	if z.N() != 50 || z.S() != 2.5 {
		t.Errorf("accessors: N=%d S=%v", z.N(), z.S())
	}
}

func TestZipfHigherSkewWithLargerS(t *testing.T) {
	z12, _ := NewZipf(1.2, 100)
	z25, _ := NewZipf(2.5, 100)
	if z25.PMF(1) <= z12.PMF(1) {
		t.Errorf("s=2.5 should put more mass on rank 1 than s=1.2 (%v vs %v)", z25.PMF(1), z12.PMF(1))
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(12)
	got := SampleWithoutReplacement(r, 10, 5)
	if len(got) != 5 {
		t.Fatalf("returned %d values, want 5", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Errorf("value %d out of range", v)
		}
		if seen[v] {
			t.Errorf("duplicate value %d", v)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("k > n did not panic")
		}
	}()
	SampleWithoutReplacement(r, 3, 4)
}

func TestWeightedChoice(t *testing.T) {
	r := New(13)
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(r, []float64{1, 2, 7})]++
	}
	if math.Abs(float64(counts[2])/n-0.7) > 0.02 {
		t.Errorf("weight-7 frequency = %v, want ~0.7", float64(counts[2])/n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-sum weights did not panic")
		}
	}()
	WeightedChoice(r, []float64{0, 0})
}

func TestMultinomialCountsSum(t *testing.T) {
	r := New(14)
	counts := Multinomial(r, 1000, []float64{0.5, 0.3, 0.2})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Errorf("multinomial counts sum to %d, want 1000", total)
	}
}

func TestPropertyDirichletValidDistribution(t *testing.T) {
	f := func(seed int64, aRaw, kRaw uint8) bool {
		alpha := 0.01 + float64(aRaw)/32.0
		k := int(kRaw%20) + 1
		p := Dirichlet(New(seed), alpha, k)
		var sum float64
		for _, x := range p {
			if x < 0 || x > 1 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyZipfInRange(t *testing.T) {
	f := func(seed int64, sRaw, nRaw uint8) bool {
		s := 0.5 + float64(sRaw)/64.0
		n := int(nRaw%200) + 1
		z, err := NewZipf(s, n)
		if err != nil {
			return false
		}
		r := New(seed)
		for i := 0; i < 20; i++ {
			k := z.Sample(r)
			if k < 1 || k > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
