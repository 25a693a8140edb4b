package topology

import (
	"testing"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// BenchmarkHotBuildReplRecord measures the annotated //afl:hotpath
// replication record build: one record with a deep-copied delta per
// applied batch. allocs/op is the replication baseline for the arena
// work of DESIGN.md §14. Run via `make bench-hot` (with -benchmem).
func BenchmarkHotBuildReplRecord(b *testing.B) {
	const dim = 256
	root, err := NewRoot(RootConfig{InitialParams: make([]float64, dim), Rounds: 1}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer root.Close()
	es := &edgeState{id: 1, clientAddr: "127.0.0.1:1"}
	batch := &transport.BatchMsg{BatchID: 1}
	delta := make([]float64, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := root.buildReplRecord(es, batch, delta, 1, 0, 0)
		if rec == nil {
			b.Fatal("nil record")
		}
	}
}

// BenchmarkHotReplFilterState measures the filter-state payload of one
// primary round on a replicated root: 20 staleness groups at dimension
// 4096, three of them moved by the round, diffed against the previous
// record's state. The round itself runs outside the timer.
func BenchmarkHotReplFilterState(b *testing.B) {
	const dim, groups = 4096, 20
	af, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	root, err := NewRoot(RootConfig{InitialParams: make([]float64, dim), Rounds: 1}, af, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer root.Close()
	rng := randx.New(1)
	round := 0
	// Below MinBatch every update is accepted and folded into its group.
	filterRound := func(staleness ...int) {
		round++
		updates := make([]*fl.Update, len(staleness))
		for i, k := range staleness {
			updates[i] = &fl.Update{ClientID: i, Staleness: k, Delta: randx.NormalVector(rng, dim, 0, 1), NumSamples: 1}
		}
		if _, err := af.Filter(updates, round); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < groups; k += 4 {
		filterRound(k, k+1, k+2, k+3)
	}
	if _, full := root.filterReplState(); !full {
		b.Fatal("first record of the stream is not full")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		filterRound(i%groups, (i+7)%groups, (i+13)%groups)
		b.StartTimer()
		if state, full := root.filterReplState(); len(state) == 0 || full {
			b.Fatalf("record %d: %d bytes, full=%v; want a delta", i, len(state), full)
		}
	}
}
