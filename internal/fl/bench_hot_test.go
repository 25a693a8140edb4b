package fl

import (
	"fmt"
	"testing"
)

// BenchmarkHotBufferAdd measures the annotated //afl:hotpath ingest path
// as the server drives it since the arena work: an Update and its delta
// vector come from the arena, ownership transfers through Buffer.Add,
// and a periodic drain recycles everything — the full steady-state
// lifecycle, which should be allocation-free once the pools are warm.
// Run via `make bench-hot` (with -benchmem); the allocs/op gate lives in
// cmd/benchgate.
func BenchmarkHotBufferAdd(b *testing.B) {
	const dim = 256
	buf, err := NewBuffer(1<<30, 0)
	if err != nil {
		b.Fatal(err)
	}
	arena := NewArena(dim)
	src := make([]float64, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := arena.GetUpdate()
		u.ClientID = 1
		u.NumSamples = 10
		u.Delta = arena.GetVec()
		copy(u.Delta, src)
		if !buf.Add(u) {
			b.Fatal("update dropped")
		}
		if buf.Len() >= 1024 {
			for _, d := range buf.Drain() {
				arena.PutUpdate(d)
			}
		}
	}
}

// BenchmarkHotCombine measures the mean combine of one round of 32
// accepted updates, at the toy dimension and at LeNet-5 size: the
// weighted AXPY of every delta into a fresh round delta. allocs/op is
// that delta and the weights; `make bench-hot` gates it.
func BenchmarkHotCombine(b *testing.B) {
	for _, dim := range []int{256, 61706} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			updates := make([]*Update, 32)
			for i := range updates {
				delta := make([]float64, dim)
				for j := range delta {
					delta[j] = float64((i*dim+j)%97) / 97
				}
				updates[i] = &Update{ClientID: i, Staleness: i % 4, Delta: delta, NumSamples: 10 + i}
			}
			cfg := AggregatorConfig{StalenessExponent: 0.5}
			b.SetBytes(int64(8 * dim * len(updates)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (MeanCombiner{}).Combine(updates, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
