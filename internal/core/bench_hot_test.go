package core

import (
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
)

// hotBatch is one Ω of updates spread over four staleness groups.
func hotBatch(dim int) []*fl.Update {
	const n = 32
	rng := randx.New(1)
	updates := make([]*fl.Update, n)
	for i := range updates {
		delta := make([]float64, dim)
		for j := range delta {
			delta[j] = rng.NormFloat64()
		}
		updates[i] = &fl.Update{ClientID: i, Staleness: i % 4, Delta: delta, NumSamples: 10}
	}
	return updates
}

func benchmarkHotFilter(b *testing.B, dim int) {
	f, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	updates := hotBatch(dim)
	// Steady state: the first round creates the estimators and is the one
	// round that reads the pooled batch mean.
	for round := 1; round <= 2; round++ {
		if _, err := f.Filter(updates, round); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Filter(updates, i+3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotFilter measures the annotated //afl:hotpath Filter call at
// dim 256, where a round is its fixed costs: grouping, medians, k-means
// and allocation. allocs/op is the two slices that escape a round (the
// verdicts and the scores); `make bench-hot` gates it against the
// map-era baseline so the round's scratch cannot silently regress. Run
// with -benchmem.
func BenchmarkHotFilter(b *testing.B) { benchmarkHotFilter(b, 256) }

// BenchmarkHotFilterLeNet is the same round at the paper's LeNet-5 size,
// where it is two streams of each 494 KB vector and B/op says at once
// whether a model-sized allocation has come back.
func BenchmarkHotFilterLeNet(b *testing.B) { benchmarkHotFilter(b, 61706) }
