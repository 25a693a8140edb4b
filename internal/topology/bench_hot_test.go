package topology

import (
	"testing"

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
