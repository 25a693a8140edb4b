package core

import (
	"math"
	"runtime"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// The filter reuses its working set from round to round; what it hands
// out must not be part of it. Round r's FilterResult, the LastScores slice
// read after round r and the observer's events of round r are compared
// again after round r+1 has run over a batch of another size and grouping.
func TestRoundResultsSurviveTheNextRound(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	rec := &recordingObserver{}
	f.SetObserver(rec)

	first, _ := makeBatch(1, map[int]int{0: 20, 1: 15}, 8, 0.3)
	res, err := f.Filter(first, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := f.LastScores()
	decisions := append([]fl.Decision(nil), res.Decisions...)
	scores := append([]float64(nil), res.Scores...)
	events := append([]fl.DecisionEvent(nil), rec.decisions...)
	rejected := 0
	for i, ev := range events {
		if ev.Decision != decisions[i] || math.Float64bits(ev.Score) != math.Float64bits(scores[i]) {
			t.Fatalf("round 1 event %d = %+v, result says %v / %v", i, ev, decisions[i], scores[i])
		}
		if ev.Decision == fl.Reject {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("round 1 rejected nothing; the comparison below would be weak")
	}

	second, _ := makeBatch(2, map[int]int{0: 9, 2: 30, 5: 12}, 8, 0.5)
	if _, err := f.Filter(second, 2); err != nil {
		t.Fatal(err)
	}
	for i := range decisions {
		if res.Decisions[i] != decisions[i] {
			t.Fatalf("round 2 rewrote round 1's decision %d: %v -> %v", i, decisions[i], res.Decisions[i])
		}
		if math.Float64bits(res.Scores[i]) != math.Float64bits(scores[i]) || math.Float64bits(last[i]) != math.Float64bits(scores[i]) {
			t.Fatalf("round 2 rewrote round 1's score %d", i)
		}
		if rec.decisions[i] != events[i] {
			t.Fatalf("round 2 rewrote round 1's event %d", i)
		}
	}
	if len(f.LastScores()) != len(second) {
		t.Fatalf("LastScores has %d entries after a round of %d", len(f.LastScores()), len(second))
	}
}

// A steady-state round of the default configuration allocates the two
// slices that escape it and nothing the size of a model: at most 4
// allocations and fewer than 8·dim bytes (one vector) per round, at the
// toy dimension and at LeNet-5's.
func TestSteadyStateRoundAllocatesOnlyItsResult(t *testing.T) {
	for _, dim := range []int{256, 61706} {
		f := mustNew(t, DefaultConfig())
		updates := hotBatch(dim)
		round := 0
		run := func() {
			round++
			if _, err := f.Filter(updates, round); err != nil {
				t.Fatal(err)
			}
		}
		run() // the first round creates the estimators and reads the pooled mean
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs > 4 {
			t.Errorf("dim %d: %v allocations per round, want <= 4", dim, allocs)
		}
		const rounds = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound >= uint64(8*dim) {
			t.Errorf("dim %d: %d bytes allocated per round, want < %d", dim, perRound, 8*dim)
		}
	}
}

// Eq. 7's literal normalization sums a squared distance per live group.
// The sum runs in slot order, so identical vectors get identical scores
// and a batch of them is one cluster, accepted whole, every time — when
// it ran in map order, once per update, the scores differed in their last
// bits, k-means split that noise and the verdicts changed between runs.
func TestNormalizeGroupsIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Normalization = NormalizeGroups
	for run := 0; run < 50; run++ {
		f := mustNew(t, cfg)
		history, _ := makeBatch(3, map[int]int{0: 6, 1: 6, 2: 6, 3: 6, 4: 6}, 0, 0.3)
		if _, err := f.Filter(history, 1); err != nil {
			t.Fatal(err)
		}
		batch := make([]*fl.Update, 12)
		for i := range batch {
			delta := make([]float64, len(history[0].Delta))
			for j := range delta {
				delta[j] = 0.1 * float64(j+1)
			}
			batch[i] = &fl.Update{ClientID: 100 + i, Staleness: 2, Delta: delta, NumSamples: 10}
		}
		res, err := f.Filter(batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Decisions {
			if d != fl.Accept || math.Float64bits(res.Scores[i]) != math.Float64bits(res.Scores[0]) {
				t.Fatalf("run %d: update %d: %v, score %v (update 0: %v)", run, i, d, res.Scores[i], res.Scores[0])
			}
		}
	}
}
