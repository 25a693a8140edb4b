// Package cluster implements the k-means clustering machinery AsyncFilter's
// attacker-identification stage depends on (3-means over 1-D suspicion
// scores) along with the general d-dimensional variant used by the
// FLDetector baseline and the analysis tooling.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Result describes a k-means clustering.
type Result struct {
	// Assignments maps each input point to its cluster index in [0, K).
	Assignments []int
	// Centers holds the final cluster centroids.
	Centers [][]float64
	// Sizes holds the number of points per cluster.
	Sizes []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Options tunes the algorithm.
type Options struct {
	// MaxIterations bounds Lloyd iterations; 0 selects 100.
	MaxIterations int
	// Tolerance stops iteration when the total center movement falls below
	// it; 0 selects 1e-9.
	Tolerance float64
	// Restarts runs k-means++ this many times and keeps the lowest-inertia
	// run; 0 selects 1.
	Restarts int
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}
	if vecmath.IsZero(o.Tolerance) {
		o.Tolerance = 1e-9
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	return o
}

// KMeans clusters d-dimensional points into k groups using k-means++
// seeding and Lloyd iterations. When fewer distinct points than k exist,
// the effective k shrinks to the number of distinct points and the extra
// clusters come back empty (Sizes[i] == 0).
func KMeans(points [][]float64, k int, r *rand.Rand, opts Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: KMeans: k = %d, need >= 1", k)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: KMeans: no points")
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: KMeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	opts = opts.withDefaults()

	var best *Result
	for restart := 0; restart < opts.Restarts; restart++ {
		res := kmeansOnce(points, k, r, opts)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func kmeansOnce(points [][]float64, k int, r *rand.Rand, opts Options) *Result {
	dim := len(points[0])
	centers := seedPlusPlus(points, k, r)

	assign := make([]int, len(points))
	sizes := make([]int, k)
	newCenters := make([][]float64, k)
	for i := range newCenters {
		newCenters[i] = make([]float64, dim)
	}

	var inertia float64
	iter := 0
	for ; iter < opts.MaxIterations; iter++ {
		// Assignment step.
		inertia = 0
		for i := range sizes {
			sizes[i] = 0
			for j := range newCenters[i] {
				newCenters[i][j] = 0
			}
		}
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, center := range centers {
				if center == nil {
					continue
				}
				d := sqDist(p, center)
				if d < bestD {
					bestC, bestD = c, d
				}
			}
			assign[i] = bestC
			inertia += bestD
			sizes[bestC]++
			for j, x := range p {
				newCenters[bestC][j] += x
			}
		}
		// Update step.
		var moved float64
		for c := range centers {
			if sizes[c] == 0 {
				// Empty cluster: keep its previous center (it may capture
				// points in later iterations) — or mark nil if never used.
				continue
			}
			inv := 1 / float64(sizes[c])
			for j := range newCenters[c] {
				newCenters[c][j] *= inv
			}
			if centers[c] != nil {
				moved += math.Sqrt(sqDist(centers[c], newCenters[c]))
			}
			if centers[c] == nil {
				centers[c] = make([]float64, dim)
			}
			copy(centers[c], newCenters[c])
		}
		if moved < opts.Tolerance {
			iter++
			break
		}
	}

	// Replace nil centers (never seeded due to < k distinct points) with
	// empty zero-vectors for a stable API.
	for c := range centers {
		if centers[c] == nil {
			centers[c] = make([]float64, dim)
		}
	}
	return &Result{
		Assignments: assign,
		Centers:     centers,
		Sizes:       sizes,
		Inertia:     inertia,
		Iterations:  iter,
	}
}

// seedPlusPlus picks k initial centers with the k-means++ scheme. When the
// data has fewer than k distinct points some center slots stay nil.
func seedPlusPlus(points [][]float64, k int, r *rand.Rand) [][]float64 {
	centers := make([][]float64, k)
	first := points[r.Intn(len(points))]
	centers[0] = append([]float64(nil), first...)

	dists := make([]float64, len(points))
	for c := 1; c < k; c++ {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, center := range centers[:c] {
				if center == nil {
					continue
				}
				if d := sqDist(p, center); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if vecmath.IsZero(total) {
			// All points coincide with existing centers; remaining slots
			// stay nil and their clusters stay empty.
			break
		}
		u := r.Float64() * total
		var acc float64
		idx := len(points) - 1
		for i, d := range dists {
			acc += d
			if u < acc {
				idx = i
				break
			}
		}
		centers[c] = append([]float64(nil), points[idx]...)
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans1D clusters scalar values into k groups. For the small inputs the
// filter sees (tens of suspicion scores) it runs k-means++ with restarts
// and deterministic ordering: returned clusters are sorted by ascending
// center so cluster 0 is always the lowest-score group, empty clusters
// last. Centers[c] holds the one coordinate of cluster c's center.
func KMeans1D(values []float64, k int, r *rand.Rand, opts Options) (*Result, error) {
	return new(Scalar).KMeans1D(values, k, r, opts)
}

// Scalar is KMeans1D's working memory. A caller that clusters every round
// keeps one: once its buffers fit the largest input seen, a call allocates
// nothing. The Result a call returns, slices included, belongs to the
// Scalar and is overwritten by its next call. The zero value is ready.
type Scalar struct {
	ints   []int
	floats []float64
	heads  [][]float64
	res    Result
}

// scalarRun is one restart's clustering over flat scratch.
type scalarRun struct {
	assign  []int
	centers []float64
	sizes   []int
	inertia float64
	iter    int
}

// KMeans1D is KMeans on 1-vectors spelled out for scalars — the same draws
// from r in the same order, the same floating-point operations (the
// squared distance of two 1-vectors is exactly d*d), the same restarts and
// tie-breaks — so the two agree bit for bit (TestKMeans1DMatchesGeneric).
func (s *Scalar) KMeans1D(values []float64, k int, r *rand.Rand, opts Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: KMeans1D: k = %d, need >= 1", k)
	}
	n := len(values)
	if n == 0 {
		return nil, fmt.Errorf("cluster: KMeans1D: no values")
	}
	if opts.Restarts == 0 {
		opts.Restarts = 5 // cheap in 1-D, avoids bad local minima
	}
	opts = opts.withDefaults()

	if need := 2*n + 4*k; cap(s.ints) < need {
		s.ints = make([]int, need)
	}
	if need := n + 3*k; cap(s.floats) < need {
		s.floats = make([]float64, need)
	}
	if cap(s.heads) < k {
		s.heads = make([][]float64, k)
	}
	ints, floats := s.ints, s.floats
	cur := scalarRun{assign: ints[:n], sizes: ints[2*n : 2*n+k], centers: floats[:k]}
	best := scalarRun{assign: ints[n : 2*n], sizes: ints[2*n+k : 2*n+2*k], centers: floats[k : 2*k]}
	order, relabel := ints[2*n+2*k:2*n+3*k], ints[2*n+3*k:2*n+4*k]
	sums, seedDist := floats[2*k:3*k], floats[3*k:3*k+n]

	for restart := 0; restart < opts.Restarts; restart++ {
		cur.lloyd(values, r, opts, sums, seedDist)
		if restart == 0 || cur.inertia < best.inertia {
			cur, best = best, cur
		}
	}

	// Relabel so centers ascend, empty clusters last in index order. An
	// insertion sort is stable, and is what sort.SliceStable runs on so few
	// elements.
	less := func(a, b int) bool {
		if best.sizes[a] == 0 || best.sizes[b] == 0 {
			return best.sizes[b] == 0 && (best.sizes[a] != 0 || a < b)
		}
		return best.centers[a] < best.centers[b]
	}
	for i := range order {
		order[i] = i
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	// The losing run's buffers are free: the relabelled centers and sizes
	// go there.
	for newIdx, oldIdx := range order {
		relabel[oldIdx] = newIdx
		cur.centers[newIdx] = best.centers[oldIdx]
		cur.sizes[newIdx] = best.sizes[oldIdx]
	}
	for i, a := range best.assign {
		best.assign[i] = relabel[a]
	}
	heads := s.heads[:k]
	for c := range heads {
		heads[c] = cur.centers[c : c+1 : c+1]
	}
	s.res = Result{Assignments: best.assign, Centers: heads, Sizes: cur.sizes, Inertia: best.inertia, Iterations: best.iter}
	return &s.res, nil
}

// lloyd is kmeansOnce for scalars: k-means++ seeding, then Lloyd
// iterations. Centers the seeding could not place (fewer distinct values
// than k) are a suffix; they attract nothing and end as zero.
func (run *scalarRun) lloyd(values []float64, r *rand.Rand, opts Options, sums, seedDist []float64) {
	seeded := seedPlusPlus1D(run.centers, values, r, seedDist)
	centers, unseeded := run.centers[:seeded], run.centers[seeded:]
	run.iter = 0
	for ; run.iter < opts.MaxIterations; run.iter++ {
		run.inertia = 0
		for c := range run.sizes {
			run.sizes[c], sums[c] = 0, 0
		}
		for i, v := range values {
			bestC, bestD := 0, math.Inf(1)
			for c, center := range centers {
				d := v - center
				if dd := float64(d * d); dd < bestD {
					bestC, bestD = c, dd
				}
			}
			run.assign[i] = bestC
			run.inertia += bestD
			run.sizes[bestC]++
			sums[bestC] += v
		}
		var moved float64
		for c, center := range centers {
			if run.sizes[c] == 0 {
				continue // keeps its center; it may capture points later
			}
			mean := sums[c] * (1 / float64(run.sizes[c]))
			d := center - mean
			moved += math.Sqrt(float64(d * d))
			centers[c] = mean
		}
		if moved < opts.Tolerance {
			run.iter++
			break
		}
	}
	for c := range unseeded {
		unseeded[c] = 0
	}
}

// seedPlusPlus1D is seedPlusPlus for scalars. It fills a prefix of centers
// and returns its length, short of len(centers) when every value already
// coincides with a chosen center.
func seedPlusPlus1D(centers, values []float64, r *rand.Rand, dists []float64) int {
	centers[0] = values[r.Intn(len(values))]
	for c := 1; c < len(centers); c++ {
		var total float64
		for i, v := range values {
			best := math.Inf(1)
			for _, center := range centers[:c] {
				d := v - center
				if dd := float64(d * d); dd < best {
					best = dd
				}
			}
			dists[i] = best
			total += best
		}
		if vecmath.IsZero(total) {
			return c
		}
		u := r.Float64() * total
		var acc float64
		idx := len(values) - 1
		for i, d := range dists {
			acc += d
			if u < acc {
				idx = i
				break
			}
		}
		centers[c] = values[idx]
	}
	return len(centers)
}

// Silhouette returns the mean silhouette coefficient of a clustering, a
// quality measure in [-1, 1]. Points in singleton clusters contribute 0.
func Silhouette(points [][]float64, assignments []int, k int) float64 {
	if len(points) < 2 {
		return 0
	}
	var total float64
	for i, p := range points {
		a, b := 0.0, math.Inf(1)
		ownCount := 0
		otherSums := make([]float64, k)
		otherCounts := make([]int, k)
		for j, q := range points {
			if i == j {
				continue
			}
			d := math.Sqrt(sqDist(p, q))
			if assignments[j] == assignments[i] {
				a += d
				ownCount++
			} else {
				otherSums[assignments[j]] += d
				otherCounts[assignments[j]]++
			}
		}
		if ownCount == 0 {
			continue // singleton: contributes 0
		}
		a /= float64(ownCount)
		for c := 0; c < k; c++ {
			if otherCounts[c] > 0 {
				if m := otherSums[c] / float64(otherCounts[c]); m < b {
					b = m
				}
			}
		}
		if math.IsInf(b, 1) {
			continue // single cluster overall
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(len(points))
}
