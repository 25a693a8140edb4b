package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// TestDiffIsMergeInverse is the property the replication log leans on:
// a filter holding prev that merges Diff(prev, cur) reproduces cur's
// group estimators and amnesty ledger exactly (CMA estimator).
func TestDiffIsMergeInverse(t *testing.T) {
	cfg := DefaultConfig()
	f, _ := New(cfg)
	rng := randx.New(3)

	// Build up real state, snapshot it, then keep filtering.
	round := 0
	for b := 0; b < 4; b++ {
		round++
		if _, err := f.Filter(smallBatch(rng, 4, 5, []int{0, 1, 2}, b*10), round); err != nil {
			t.Fatal(err)
		}
	}
	prev := f.Snapshot()
	for b := 4; b < 8; b++ {
		round++
		if _, err := f.Filter(smallBatch(rng, 4, 5, []int{0, 1, 3}, b*10), round); err != nil {
			t.Fatal(err)
		}
	}
	cur := f.Snapshot()

	delta, err := Diff(prev, cur)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}

	// Reference: restore prev into a fresh filter, merge the delta.
	ref, _ := New(cfg)
	if err := ref.Restore(prev); err != nil {
		t.Fatal(err)
	}
	if err := ref.Merge(delta); err != nil {
		t.Fatalf("Merge(delta): %v", err)
	}
	got := ref.Snapshot()
	if got.Rounds != cur.Rounds {
		t.Errorf("rounds = %d, want %d", got.Rounds, cur.Rounds)
	}
	if len(got.Groups) != len(cur.Groups) {
		t.Fatalf("groups = %d, want %d", len(got.Groups), len(cur.Groups))
	}
	curGroups := make(map[int]GroupState, len(cur.Groups))
	for _, g := range cur.Groups {
		curGroups[g.Staleness] = g
	}
	for _, g := range got.Groups {
		want, ok := curGroups[g.Staleness]
		if !ok {
			t.Fatalf("unexpected group %d after merge", g.Staleness)
		}
		if g.Count != want.Count {
			t.Errorf("group %d: count %d, want %d", g.Staleness, g.Count, want.Count)
		}
		if !vecmath.EqualApprox(g.Mean, want.Mean, 1e-9) {
			t.Errorf("group %d: merged mean diverges from the filter that saw every batch", g.Staleness)
		}
	}
}

// TestDiffCarriesFreshGroupsVerbatim covers groups prev never observed:
// the delta must carry them whole so Merge restores them fresh.
func TestDiffCarriesFreshGroupsVerbatim(t *testing.T) {
	prev := FilterState{Dim: 2, Rounds: 1, Groups: []GroupState{
		{Staleness: 0, Mean: []float64{1, 1}, Count: 2},
	}}
	cur := FilterState{Dim: 2, Rounds: 2, Groups: []GroupState{
		{Staleness: 0, Mean: []float64{1, 1}, Count: 2},
		{Staleness: 3, Mean: []float64{5, 7}, Count: 4},
	}}
	delta, err := Diff(prev, cur)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(delta.Groups) != 1 {
		t.Fatalf("delta groups = %+v, want only the fresh group", delta.Groups)
	}
	g := delta.Groups[0]
	if g.Staleness != 3 || g.Count != 4 || !vecmath.EqualApprox(g.Mean, []float64{5, 7}, 0) {
		t.Errorf("fresh group not carried verbatim: %+v", g)
	}
}

// TestDiffRefusals covers every no-exact-delta case: the caller must get
// an error (and fall back to a full snapshot), never a silently wrong
// delta.
func TestDiffRefusals(t *testing.T) {
	base := FilterState{Dim: 2, Rounds: 5, Groups: []GroupState{
		{Staleness: 0, Mean: []float64{1, 2}, Count: 4},
	}}
	cases := []struct {
		name string
		prev FilterState
		cur  FilterState
	}{
		{
			name: "dim changed",
			prev: FilterState{Dim: 3, Rounds: 1},
			cur:  base,
		},
		{
			name: "rounds moved backwards",
			prev: FilterState{Dim: 2, Rounds: 9},
			cur:  base,
		},
		{
			name: "group count decreased",
			prev: FilterState{Dim: 2, Rounds: 1, Groups: []GroupState{
				{Staleness: 0, Mean: []float64{1, 2}, Count: 9},
			}},
			cur: base,
		},
		{
			name: "amnesty spent",
			prev: FilterState{Dim: 2, Rounds: 1, Amnesty: []AmnestyCredit{{ClientID: 7, Credits: 3}}},
			cur:  FilterState{Dim: 2, Rounds: 2, Amnesty: []AmnestyCredit{{ClientID: 7, Credits: 1}}},
		},
		{
			name: "amnesty entry dropped",
			prev: FilterState{Dim: 2, Rounds: 1, Amnesty: []AmnestyCredit{{ClientID: 7, Credits: 3}}},
			cur:  FilterState{Dim: 2, Rounds: 2},
		},
	}
	for _, tc := range cases {
		if _, err := Diff(tc.prev, tc.cur); err == nil {
			t.Errorf("%s: Diff succeeded, want refusal", tc.name)
		}
	}

	// Equal counts contribute nothing; grown amnesty credits ride along.
	cur := FilterState{Dim: 2, Rounds: 6,
		Groups:  []GroupState{{Staleness: 0, Mean: []float64{1, 2}, Count: 4}},
		Amnesty: []AmnestyCredit{{ClientID: 7, Credits: 3}},
	}
	delta, err := Diff(base, cur)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(delta.Groups) != 0 {
		t.Errorf("unchanged group produced a delta: %+v", delta.Groups)
	}
	if len(delta.Amnesty) != 1 || delta.Amnesty[0].Credits != 3 {
		t.Errorf("grown amnesty not carried: %+v", delta.Amnesty)
	}
}

// TestDiffStateRoundTrip exercises the delta bytes the replicated root
// ships: MergeState(DiffState(prev)) applied to a filter
// restored from prev reproduces the live filter's detection state, and
// two standbys that replay the identical delta stream are byte-identical
// to each other — the comparability guarantee the failover audit uses.
func TestDiffStateRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	f, _ := New(cfg)
	rng := randx.New(17)
	if _, err := f.Filter(smallBatch(rng, 4, 4, []int{0, 1}, 0), 1); err != nil {
		t.Fatal(err)
	}
	prev, err := f.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Filter(smallBatch(rng, 4, 4, []int{0, 2}, 40), 2); err != nil {
		t.Fatal(err)
	}
	cur := f.Snapshot()

	delta, err := f.DiffState(prev)
	if err != nil {
		t.Fatalf("DiffState: %v", err)
	}

	replay := func() *AsyncFilter {
		sb, _ := New(cfg)
		if err := sb.RestoreState(prev); err != nil {
			t.Fatal(err)
		}
		if err := sb.MergeState(delta); err != nil {
			t.Fatalf("MergeState(delta): %v", err)
		}
		return sb
	}
	standby := replay()

	// The standby matches the live filter up to float associativity (its
	// merge recombines group means the live filter folded one update at a
	// time).
	got := standby.Snapshot()
	if got.Rounds != cur.Rounds || len(got.Groups) != len(cur.Groups) {
		t.Fatalf("standby at rounds=%d groups=%d, live filter rounds=%d groups=%d",
			got.Rounds, len(got.Groups), cur.Rounds, len(cur.Groups))
	}
	for i, g := range got.Groups {
		want := cur.Groups[i]
		if g.Staleness != want.Staleness || g.Count != want.Count {
			t.Errorf("group %d: (staleness %d, count %d), want (%d, %d)",
				i, g.Staleness, g.Count, want.Staleness, want.Count)
		}
		if !vecmath.EqualApprox(g.Mean, want.Mean, 1e-9) {
			t.Errorf("group %d: standby mean diverges from live filter", i)
		}
	}

	// Two standbys replaying the same snapshot+delta stream perform the
	// identical float operations: their serialized states must be equal
	// byte for byte.
	a, err := replay().SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay().SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two standbys replaying the same delta stream are not byte-identical")
	}

	if _, err := f.DiffState([]byte("not a snapshot")); err == nil {
		t.Error("DiffState accepted garbage prev")
	}
}

// TestDiffStateRefusesEWMA: EWMA weighting depends on arrival order, so
// no exact delta exists and DiffState must refuse up front.
func TestDiffStateRefusesEWMA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Estimator = EstimatorEWMA
	cfg.EWMAAlpha = 0.5
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := f.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DiffState(prev); err == nil {
		t.Fatal("DiffState produced a delta for the EWMA estimator")
	}
}

// hostileRound builds one seeded arrival batch at dimension dim: honest
// updates around a per-group center in a few staleness groups, plus
// gradient-reversal attackers 9000..9003 who keep their IDs every round,
// so credits they earn when rejected are spent when they return.
func hostileRound(rng *rand.Rand, dim int) []*fl.Update {
	var updates []*fl.Update
	for _, k := range rng.Perm(8)[:3+rng.Intn(4)] {
		for j := 0; j < 2+rng.Intn(4); j++ {
			delta := randx.NormalVector(rng, dim, 0.1*float64(k), 0.2)
			updates = append(updates, &fl.Update{ClientID: 100*k + j, Staleness: k, Delta: delta, NumSamples: 10})
		}
	}
	for j := 0; j < 1+rng.Intn(4); j++ {
		delta := randx.NormalVector(rng, dim, -4, 0.05)
		updates = append(updates, &fl.Update{ClientID: 9000 + j, Staleness: rng.Intn(3), Delta: delta, NumSamples: 10})
	}
	return updates
}

// TestDiffSinceMatchesSnapshotBytes pins the in-memory diff base to the
// bytes-based call pair it replaced: one filter answers each round with
// DiffState against the previous SnapshotState payload (falling back to
// a full SnapshotState) and then re-snapshots to keep the next base; a
// twin filter answers with DiffSince. Every round's payload and full
// flag must be byte-identical, and so must the twins' verdicts and score
// bits, which shows the RNG reseeds line up in every branch, the full
// fallbacks for spent amnesty included.
func TestDiffSinceMatchesSnapshotBytes(t *testing.T) {
	const dim, rounds = 64, 200
	old, _ := New(DefaultConfig())
	cur, _ := New(DefaultConfig())
	var prevBytes []byte
	oldState := func() ([]byte, bool) {
		if prevBytes != nil {
			if delta, err := old.DiffState(prevBytes); err == nil {
				next, err := old.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				prevBytes = next
				return delta, false
			}
		}
		next, err := old.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		prevBytes = next
		return next, true
	}

	rng := randx.New(56)
	var base any
	fallbacks := 0
	for round := 1; round <= rounds; round++ {
		batch := hostileRound(rng, dim)
		twin := make([]*fl.Update, len(batch))
		for i, u := range batch {
			c := *u
			c.Delta = vecmath.Clone(u.Delta)
			twin[i] = &c
		}
		resOld, err := old.Filter(batch, round)
		if err != nil {
			t.Fatal(err)
		}
		resCur, err := cur.Filter(twin, round)
		if err != nil {
			t.Fatal(err)
		}
		for i := range resOld.Decisions {
			if resOld.Decisions[i] != resCur.Decisions[i] {
				t.Fatalf("round %d update %d: verdict %v, want %v", round, i, resCur.Decisions[i], resOld.Decisions[i])
			}
		}
		scoresOld, scoresCur := old.LastScores(), cur.LastScores()
		if len(scoresOld) != len(scoresCur) {
			t.Fatalf("round %d: %d scores, want %d", round, len(scoresCur), len(scoresOld))
		}
		for i := range scoresOld {
			if math.Float64bits(scoresOld[i]) != math.Float64bits(scoresCur[i]) {
				t.Fatalf("round %d update %d: score %v, want %v", round, i, scoresCur[i], scoresOld[i])
			}
		}

		wantState, wantFull := oldState()
		state, full, next, err := cur.DiffSince(base)
		if err != nil {
			t.Fatalf("round %d: DiffSince: %v", round, err)
		}
		base = next
		if full != wantFull || !bytes.Equal(state, wantState) {
			t.Fatalf("round %d: payload (full=%v, %d bytes), want (full=%v, %d bytes)",
				round, full, len(state), wantFull, len(wantState))
		}
		if full && round > 1 {
			fallbacks++
		}
	}
	if fallbacks == 0 {
		t.Error("no round fell back to a full payload: the schedule never spent an amnesty credit")
	}
	t.Logf("%d rounds, %d full fallbacks after the first", rounds, fallbacks)
}

// TestDiffSinceEWMAShipsFull: the EWMA estimator has no exact delta, so
// every record carries the full state, with or without a base.
func TestDiffSinceEWMAShipsFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Estimator = EstimatorEWMA
	cfg.EWMAAlpha = 0.5
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var base any
	for round := 1; round <= 3; round++ {
		if _, err := f.Filter(smallBatch(randx.New(int64(round)), 4, 4, []int{0, 1}, 0), round); err != nil {
			t.Fatal(err)
		}
		state, full, next, err := f.DiffSince(base)
		if err != nil {
			t.Fatal(err)
		}
		if !full {
			t.Fatalf("round %d: EWMA record shipped a delta", round)
		}
		probe, _ := New(cfg)
		if err := probe.RestoreState(state); err != nil {
			t.Fatalf("round %d: full payload does not restore: %v", round, err)
		}
		base = next
	}
}
