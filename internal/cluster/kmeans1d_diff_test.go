package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/randx"
)

// sortClustersByCenter relabels a generic KMeans result so centers ascend
// by their first coordinate, empty clusters last. Together with KMeans on
// 1-vectors it is what KMeans1D was before it had a scalar path, kept here
// as the oracle.
func sortClustersByCenter(res *Result) {
	k := len(res.Centers)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if res.Sizes[ca] == 0 && res.Sizes[cb] == 0 {
			return ca < cb
		}
		if res.Sizes[ca] == 0 {
			return false
		}
		if res.Sizes[cb] == 0 {
			return true
		}
		return res.Centers[ca][0] < res.Centers[cb][0]
	})
	relabel := make([]int, k)
	for newIdx, oldIdx := range order {
		relabel[oldIdx] = newIdx
	}
	newCenters := make([][]float64, k)
	newSizes := make([]int, k)
	for oldIdx, newIdx := range relabel {
		newCenters[newIdx] = res.Centers[oldIdx]
		newSizes[newIdx] = res.Sizes[oldIdx]
	}
	for i, a := range res.Assignments {
		res.Assignments[i] = relabel[a]
	}
	res.Centers = newCenters
	res.Sizes = newSizes
}

// genericKMeans1D is the oracle: generic KMeans over [][]float64{{v}} with
// KMeans1D's default of five restarts, then the center sort.
func genericKMeans1D(t *testing.T, values []float64, k int, seed int64, opts Options) (*Result, int64) {
	t.Helper()
	points := make([][]float64, len(values))
	for i, v := range values {
		points[i] = []float64{v}
	}
	if opts.Restarts == 0 {
		opts.Restarts = 5
	}
	r := randx.New(seed)
	res, err := KMeans(points, k, r, opts)
	if err != nil {
		t.Fatal(err)
	}
	sortClustersByCenter(res)
	return res, r.Int63()
}

// TestKMeans1DMatchesGeneric holds the scalar path to the generic one bit
// for bit — assignments, centers, sizes, inertia, iteration count — and
// to the same position in the shared random stream afterwards, on one
// reused Scalar (so stale scratch from a larger input would show) and on
// the package-level function.
func TestKMeans1DMatchesGeneric(t *testing.T) {
	gen := randx.New(99)
	normal := func(n int, scale float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = scale * gen.NormFloat64()
		}
		return out
	}
	cases := []struct {
		name   string
		values []float64
	}{
		{"well separated", wellSeparated()},
		{"gaussian 77", normal(77, 1)},
		{"gaussian 32", normal(32, 0.01)},
		{"duplicates", []float64{1, 1, 1, 2, 2, 5, 5, 5, 5, 1, 2, 5}},
		{"two distinct values", []float64{0.25, 0.75, 0.25, 0.75, 0.25, 0.25}},
		{"all equal", []float64{1, 1, 1, 1, 1, 1, 1}},
		{"all zero", []float64{0, 0, 0, 0}},
		{"n equals k=3", []float64{0.3, 0.1, 0.2}},
		{"single value", []float64{0.5}},
		{"negative and tiny", []float64{-1e-300, 1e-300, -3, 3, 0, 1e-160, -1e-160}},
		{"huge spread", []float64{1e200, -1e200, 1, 2, 3, 1e-200}},
		{"scores with an outlier", append(normal(30, 0.05), 40, 41)},
		{"not finite", []float64{math.NaN(), 1, 2, 3, math.Inf(1), 0.5, math.Inf(-1)}},
	}
	var reused Scalar
	for _, tc := range cases {
		for _, k := range []int{1, 2, 3, 5} {
			for _, opts := range []Options{{}, {Restarts: 1}, {Restarts: 3, MaxIterations: 2}} {
				for seed := int64(1); seed <= 4; seed++ {
					want, wantNext := genericKMeans1D(t, tc.values, k, seed, opts)
					for _, path := range []struct {
						name string
						run  func([]float64, int, *rand.Rand, Options) (*Result, error)
					}{{"reused Scalar", reused.KMeans1D}, {"KMeans1D", KMeans1D}} {
						name := path.name
						r := randx.New(seed)
						got, err := path.run(tc.values, k, r, opts)
						if err != nil {
							t.Fatal(err)
						}
						if diff := resultDiff(got, want); diff != "" {
							t.Fatalf("%s, k=%d, %+v, seed %d, %s: %s\n got %+v\nwant %+v", tc.name, k, opts, seed, name, diff, got, want)
						}
						if next := r.Int63(); next != wantNext {
							t.Fatalf("%s, k=%d, %+v, seed %d, %s: random stream diverged", tc.name, k, opts, seed, name)
						}
					}
				}
			}
		}
	}
}

// resultDiff names the first field in which two results are not bit-equal.
func resultDiff(got, want *Result) string {
	switch {
	case len(got.Assignments) != len(want.Assignments) || len(got.Centers) != len(want.Centers) || len(got.Sizes) != len(want.Sizes):
		return "shape"
	case math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia):
		return "Inertia"
	case got.Iterations != want.Iterations:
		return "Iterations"
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			return "Assignments"
		}
	}
	for c := range want.Centers {
		if len(got.Centers[c]) != 1 || math.Float64bits(got.Centers[c][0]) != math.Float64bits(want.Centers[c][0]) {
			return "Centers"
		}
		if got.Sizes[c] != want.Sizes[c] {
			return "Sizes"
		}
	}
	return ""
}

// TestKMeans1DValidation: the scalar path rejects what the generic one
// does.
func TestKMeans1DValidation(t *testing.T) {
	r := randx.New(1)
	if _, err := KMeans1D(nil, 2, r, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := KMeans1D([]float64{1}, 0, r, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestScalarSteadyStateAllocatesNothing pins the point of Scalar: after
// the first call at a size, further calls at that size or below are free.
func TestScalarSteadyStateAllocatesNothing(t *testing.T) {
	r := randx.New(3)
	values := make([]float64, 77)
	for i := range values {
		values[i] = r.NormFloat64()
	}
	var s Scalar
	if _, err := s.KMeans1D(values, 3, r, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{77, 32} {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.KMeans1D(values[:n], 3, r, Options{}); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("n=%d: %v allocations per call, want 0", n, allocs)
		}
	}
}
