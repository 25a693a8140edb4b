// Package randx provides the deterministic random sampling primitives the
// federated-learning stack needs beyond math/rand: Zipf-distributed client
// latencies, Dirichlet-distributed non-IID data partitions, Gaussian
// vectors, and reproducible sub-stream splitting.
//
// Every consumer in this repository receives its randomness through an
// *rand.Rand created from an explicit seed, so whole simulations are
// reproducible bit-for-bit (mirroring the "reproducible mode" of the
// PLATO platform used by the paper).
package randx

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// New returns a new deterministic generator for the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a new independent generator from r. Drawing the child seed
// from the parent keeps the parent/child streams decoupled: consuming more
// values from the child does not shift the parent's sequence.
func Split(r *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(r.Int63()))
}

// NormalVector fills a fresh length-n vector with independent draws from
// N(mean, std^2).
func NormalVector(r *rand.Rand, n int, mean, std float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = mean + std*r.NormFloat64()
	}
	return v
}

// UnitVector returns a uniformly random direction on the n-sphere.
func UnitVector(r *rand.Rand, n int) []float64 {
	for {
		v := NormalVector(r, n, 0, 1)
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue // astronomically unlikely; redraw
		}
		for i := range v {
			v[i] /= norm
		}
		return v
	}
}

// Gamma draws from the Gamma distribution with the given shape and scale
// using the Marsaglia–Tsang squeeze method (with the standard boost for
// shape < 1). Shape and scale must be positive.
func Gamma(r *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("randx: Gamma: shape and scale must be positive (shape=%v scale=%v)", shape, scale))
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for vecmath.IsZero(u) {
			u = r.Float64()
		}
		return Gamma(r, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Dirichlet draws a probability vector from the symmetric Dirichlet
// distribution with concentration alpha over k categories. Small alpha
// (< 1) concentrates mass on few categories — the standard way to create
// highly non-IID federated data partitions.
func Dirichlet(r *rand.Rand, alpha float64, k int) []float64 {
	if k <= 0 {
		panic("randx: Dirichlet: k must be positive")
	}
	if alpha <= 0 {
		panic("randx: Dirichlet: alpha must be positive")
	}
	p := make([]float64, k)
	var total float64
	for i := range p {
		p[i] = Gamma(r, alpha, 1)
		total += p[i]
	}
	if vecmath.IsZero(total) {
		// All gammas underflowed (possible for tiny alpha); fall back to a
		// single random spike, the limiting behaviour of alpha -> 0.
		p[r.Intn(k)] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// DirichletAsymmetric draws from Dirichlet(alphas). All concentrations must
// be positive.
func DirichletAsymmetric(r *rand.Rand, alphas []float64) []float64 {
	if len(alphas) == 0 {
		panic("randx: DirichletAsymmetric: empty alphas")
	}
	p := make([]float64, len(alphas))
	var total float64
	for i, a := range alphas {
		p[i] = Gamma(r, a, 1)
		total += p[i]
	}
	if vecmath.IsZero(total) {
		p[r.Intn(len(p))] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// Zipf models the discrete Zipf distribution over ranks 1..n with exponent
// s, used by the paper to model client processing latencies: a majority of
// fast devices, a middle tier, and a heavy tail of stragglers.
type Zipf struct {
	n   int
	s   float64
	cdf []float64
}

// NewZipf builds a Zipf distribution over ranks 1..n with exponent s > 0.
func NewZipf(s float64, n int) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("randx: NewZipf: n must be positive, got %d", n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("randx: NewZipf: s must be positive, got %v", s)
	}
	cdf := make([]float64, n)
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{n: n, s: s, cdf: cdf}, nil
}

// Sample draws a rank in [1, n]; rank 1 is the most probable.
func (z *Zipf) Sample(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// PMF returns the probability of rank k (1-based).
func (z *Zipf) PMF(k int) float64 {
	if k < 1 || k > z.n {
		return 0
	}
	if k == 1 {
		return z.cdf[0]
	}
	return z.cdf[k-1] - z.cdf[k-2]
}

// N returns the number of ranks.
func (z *Zipf) N() int { return z.n }

// S returns the exponent.
func (z *Zipf) S() float64 { return z.s }

// Perm returns a deterministic random permutation of [0, n).
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). It panics when k > n.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("randx: SampleWithoutReplacement: k=%d > n=%d", k, n))
	}
	perm := r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// WeightedChoice returns an index drawn with probability proportional to
// weights[i]. Weights must be non-negative with a positive sum.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("randx: WeightedChoice: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("randx: WeightedChoice: weights sum to zero")
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Multinomial distributes n trials over categories with the given
// probability vector, returning per-category counts.
func Multinomial(r *rand.Rand, n int, probs []float64) []int {
	counts := make([]int, len(probs))
	for i := 0; i < n; i++ {
		counts[WeightedChoice(r, probs)]++
	}
	return counts
}
