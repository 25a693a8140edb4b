// Package dataset provides the labelled-data substrate for the federated
// learning stack.
//
// The paper evaluates on MNIST, FashionMNIST, CIFAR-10 and CINIC-10. Those
// image corpora (and the GPU models that train on them) are not available
// in a pure-Go offline build, so this package substitutes synthetic
// class-conditional Gaussian-mixture datasets whose presets are calibrated
// to reproduce the papers' relative difficulty ordering (see DESIGN.md §2).
// The defense under study only ever observes flattened model-update
// vectors, so what must be preserved is the geometry of those updates —
// within-group dispersion from non-IID data and attacker perturbations
// relative to benign variance — which Gaussian-mixture classification
// tasks reproduce.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/asyncfl/asyncfilter/internal/randx"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Example is a single labelled sample.
type Example struct {
	// Features is the input vector.
	Features []float64
	// Label is the class index in [0, NumClasses).
	Label int
}

// Dataset is an in-memory labelled dataset.
type Dataset struct {
	// Examples holds the samples.
	Examples []Example
	// NumClasses is the number of distinct labels.
	NumClasses int
	// Dim is the feature dimensionality.
	Dim int
	// Name identifies the generating preset ("mnist", "cifar10", ...).
	Name string
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Subset returns a view of the dataset restricted to the given indices.
// The examples are shared, not copied.
func (d *Dataset) Subset(indices []int) *Dataset {
	sub := &Dataset{
		Examples:   make([]Example, len(indices)),
		NumClasses: d.NumClasses,
		Dim:        d.Dim,
		Name:       d.Name,
	}
	for i, idx := range indices {
		sub.Examples[i] = d.Examples[idx]
	}
	return sub
}

// LabelCounts returns the number of examples per class.
func (d *Dataset) LabelCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, ex := range d.Examples {
		counts[ex.Label]++
	}
	return counts
}

// Shuffle permutes the examples in place using r.
func (d *Dataset) Shuffle(r *rand.Rand) {
	r.Shuffle(len(d.Examples), func(i, j int) {
		d.Examples[i], d.Examples[j] = d.Examples[j], d.Examples[i]
	})
}

// SyntheticConfig describes a class-conditional Gaussian-mixture dataset.
type SyntheticConfig struct {
	// Name labels the dataset.
	Name string
	// NumClasses is the number of classes (>= 2).
	NumClasses int
	// Dim is the feature dimensionality.
	Dim int
	// TrainSize and TestSize are the split sizes.
	TrainSize int
	TestSize  int
	// Separation scales the distance between class means; larger values
	// make the task easier.
	Separation float64
	// Noise is the per-feature Gaussian noise standard deviation.
	Noise float64
	// LabelNoise is the fraction of training labels flipped to a random
	// other class (irreducible error, used to cap achievable accuracy the
	// way CINIC-10's distribution shift does).
	LabelNoise float64
	// WithinClassSpread adds a second, class-specific random covariance
	// direction so classes are anisotropic rather than spherical.
	WithinClassSpread float64
	// Seed drives generation.
	Seed int64
}

// Validate checks the configuration.
func (c *SyntheticConfig) Validate() error {
	switch {
	case c.NumClasses < 2:
		return fmt.Errorf("dataset: config %q: NumClasses = %d, need >= 2", c.Name, c.NumClasses)
	case c.Dim < 1:
		return fmt.Errorf("dataset: config %q: Dim = %d, need >= 1", c.Name, c.Dim)
	case c.TrainSize < c.NumClasses:
		return fmt.Errorf("dataset: config %q: TrainSize = %d, need >= NumClasses", c.Name, c.TrainSize)
	case c.TestSize < 1:
		return fmt.Errorf("dataset: config %q: TestSize = %d, need >= 1", c.Name, c.TestSize)
	case c.Separation <= 0:
		return fmt.Errorf("dataset: config %q: Separation must be positive", c.Name)
	case c.Noise <= 0:
		return fmt.Errorf("dataset: config %q: Noise must be positive", c.Name)
	case c.LabelNoise < 0 || c.LabelNoise >= 1:
		return fmt.Errorf("dataset: config %q: LabelNoise must be in [0,1)", c.Name)
	}
	return nil
}

// GenerateSynthetic builds train and test datasets from the configuration.
// Test data is always generated without label noise, matching the paper's
// clean held-out test sets.
func GenerateSynthetic(cfg SyntheticConfig) (train, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	r := randx.New(cfg.Seed)

	// Class means: random directions scaled by Separation. A shared draw
	// for train and test keeps the split consistent.
	means := make([][]float64, cfg.NumClasses)
	spreadDirs := make([][]float64, cfg.NumClasses)
	for c := range means {
		means[c] = randx.UnitVector(r, cfg.Dim)
		for i := range means[c] {
			means[c][i] *= cfg.Separation
		}
		spreadDirs[c] = randx.UnitVector(r, cfg.Dim)
	}

	gen := func(n int, labelNoise float64, rr *rand.Rand) *Dataset {
		d := &Dataset{
			Examples:   make([]Example, 0, n),
			NumClasses: cfg.NumClasses,
			Dim:        cfg.Dim,
			Name:       cfg.Name,
		}
		for i := 0; i < n; i++ {
			c := i % cfg.NumClasses // balanced classes
			x := make([]float64, cfg.Dim)
			along := cfg.WithinClassSpread * rr.NormFloat64()
			for j := range x {
				x[j] = means[c][j] + cfg.Noise*rr.NormFloat64() + along*spreadDirs[c][j]
			}
			label := c
			if labelNoise > 0 && rr.Float64() < labelNoise {
				label = rr.Intn(cfg.NumClasses - 1)
				if label >= c {
					label++
				}
			}
			d.Examples = append(d.Examples, Example{Features: x, Label: label})
		}
		d.Shuffle(rr)
		return d
	}

	train = gen(cfg.TrainSize, cfg.LabelNoise, randx.Split(r))
	test = gen(cfg.TestSize, 0, randx.Split(r))
	return train, test, nil
}

// PartitionIID splits the dataset into n near-equal IID shards.
func PartitionIID(d *Dataset, n int, r *rand.Rand) ([]*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: PartitionIID: n = %d, need > 0", n)
	}
	if d.Len() < n {
		return nil, fmt.Errorf("dataset: PartitionIID: %d examples cannot fill %d shards", d.Len(), n)
	}
	perm := r.Perm(d.Len())
	shards := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		lo := i * d.Len() / n
		hi := (i + 1) * d.Len() / n
		shards[i] = d.Subset(perm[lo:hi])
	}
	return shards, nil
}

// PartitionDirichlet splits the dataset into n non-IID shards. Each shard's
// label distribution is drawn from a symmetric Dirichlet with concentration
// alpha: alpha <= 1 concentrates each client on few labels (highly
// non-IID), large alpha approaches IID. Every shard is guaranteed at least
// one example.
func PartitionDirichlet(d *Dataset, n int, alpha float64, r *rand.Rand) ([]*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: PartitionDirichlet: n = %d, need > 0", n)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("dataset: PartitionDirichlet: alpha = %v, need > 0", alpha)
	}
	if d.Len() < n {
		return nil, fmt.Errorf("dataset: PartitionDirichlet: %d examples cannot fill %d shards", d.Len(), n)
	}

	// Bucket example indices by label, shuffled for random assignment.
	byLabel := make([][]int, d.NumClasses)
	for idx, ex := range d.Examples {
		byLabel[ex.Label] = append(byLabel[ex.Label], idx)
	}
	for _, bucket := range byLabel {
		r.Shuffle(len(bucket), func(i, j int) { bucket[i], bucket[j] = bucket[j], bucket[i] })
	}

	// Per-client label preference vectors.
	prefs := make([][]float64, n)
	for i := range prefs {
		prefs[i] = randx.Dirichlet(r, alpha, d.NumClasses)
	}

	// Walk each label bucket and deal examples to clients proportionally to
	// their preference for that label.
	assigned := make([][]int, n)
	for label, bucket := range byLabel {
		if len(bucket) == 0 {
			continue
		}
		weights := make([]float64, n)
		var total float64
		for i := range prefs {
			weights[i] = prefs[i][label]
			total += weights[i]
		}
		if vecmath.IsZero(total) {
			for i := range weights {
				weights[i] = 1
			}
			total = float64(n)
		}
		// Largest-remainder allocation of the bucket across clients.
		quotas := make([]int, n)
		type frac struct {
			idx int
			rem float64
		}
		fracs := make([]frac, n)
		used := 0
		for i := range weights {
			exact := float64(len(bucket)) * weights[i] / total
			quotas[i] = int(exact)
			fracs[i] = frac{idx: i, rem: exact - float64(quotas[i])}
			used += quotas[i]
		}
		sort.Slice(fracs, func(a, b int) bool {
			if !vecmath.ExactEqual(fracs[a].rem, fracs[b].rem) {
				return fracs[a].rem > fracs[b].rem
			}
			return fracs[a].idx < fracs[b].idx
		})
		for i := 0; used < len(bucket); i++ {
			quotas[fracs[i%n].idx]++
			used++
		}
		pos := 0
		for i, q := range quotas {
			assigned[i] = append(assigned[i], bucket[pos:pos+q]...)
			pos += q
		}
	}

	// Guarantee non-empty shards: steal one example from the largest shard.
	for i := range assigned {
		if len(assigned[i]) > 0 {
			continue
		}
		largest := 0
		for j := range assigned {
			if len(assigned[j]) > len(assigned[largest]) {
				largest = j
			}
		}
		if len(assigned[largest]) < 2 {
			return nil, fmt.Errorf("dataset: PartitionDirichlet: not enough examples to fill every shard")
		}
		last := len(assigned[largest]) - 1
		assigned[i] = append(assigned[i], assigned[largest][last])
		assigned[largest] = assigned[largest][:last]
	}

	shards := make([]*Dataset, n)
	for i := range shards {
		shards[i] = d.Subset(assigned[i])
	}
	return shards, nil
}

// PartitionDirichletFixedSize builds n shards of exactly size examples
// each, with per-shard label proportions drawn from a symmetric Dirichlet
// with concentration alpha. This mirrors the paper's partitioning (Table 1
// fixes the partition size per client; the Dirichlet draw shapes only the
// label mix). Examples are sampled with replacement from per-label
// buckets, so shards may overlap — acceptable for a synthetic corpus and
// required to honor both the exact size and an extreme label skew.
func PartitionDirichletFixedSize(d *Dataset, n, size int, alpha float64, r *rand.Rand) ([]*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: PartitionDirichletFixedSize: n = %d, need > 0", n)
	}
	if size <= 0 {
		return nil, fmt.Errorf("dataset: PartitionDirichletFixedSize: size = %d, need > 0", size)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("dataset: PartitionDirichletFixedSize: alpha = %v, need > 0", alpha)
	}
	byLabel := make([][]int, d.NumClasses)
	for idx, ex := range d.Examples {
		byLabel[ex.Label] = append(byLabel[ex.Label], idx)
	}
	nonEmpty := make([]int, 0, d.NumClasses)
	for label, bucket := range byLabel {
		if len(bucket) > 0 {
			nonEmpty = append(nonEmpty, label)
		}
	}
	if len(nonEmpty) == 0 {
		return nil, fmt.Errorf("dataset: PartitionDirichletFixedSize: empty dataset")
	}

	shards := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		prefs := randx.Dirichlet(r, alpha, len(nonEmpty))
		counts := randx.Multinomial(r, size, prefs)
		indices := make([]int, 0, size)
		for j, c := range counts {
			bucket := byLabel[nonEmpty[j]]
			for k := 0; k < c; k++ {
				indices = append(indices, bucket[r.Intn(len(bucket))])
			}
		}
		shards[i] = d.Subset(indices)
		shards[i].Shuffle(r)
	}
	return shards, nil
}

// PartitionIIDFixedSize builds n shards of exactly size examples each,
// drawn uniformly with replacement — the IID counterpart of
// PartitionDirichletFixedSize.
func PartitionIIDFixedSize(d *Dataset, n, size int, r *rand.Rand) ([]*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: PartitionIIDFixedSize: n = %d, need > 0", n)
	}
	if size <= 0 {
		return nil, fmt.Errorf("dataset: PartitionIIDFixedSize: size = %d, need > 0", size)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("dataset: PartitionIIDFixedSize: empty dataset")
	}
	shards := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		indices := make([]int, size)
		for k := range indices {
			indices[k] = r.Intn(d.Len())
		}
		shards[i] = d.Subset(indices)
	}
	return shards, nil
}
