package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
)

// randomBatch builds n updates with random staleness and Gaussian deltas,
// plus a few crafted outliers so rounds exercise rejection and amnesty.
func randomBatch(rng *rand.Rand, n, dim int) []*fl.Update {
	updates := make([]*fl.Update, n)
	for i := range updates {
		delta := randx.NormalVector(rng, dim, 0.1, 0.05)
		if i < n/4 { // outliers far from the benign cloud
			delta = randx.NormalVector(rng, dim, 5, 0.05)
		}
		updates[i] = &fl.Update{
			ClientID:    rng.Intn(12),
			BaseVersion: 0,
			Staleness:   rng.Intn(3),
			Delta:       delta,
			NumSamples:  10,
		}
	}
	return updates
}

func cloneBatch(updates []*fl.Update) []*fl.Update {
	out := make([]*fl.Update, len(updates))
	for i, u := range updates {
		out[i] = fl.CloneUpdate(u)
	}
	return out
}

// TestSnapshotRestoreRoundTrip is the property test for checkpointing:
// for randomized filter states across estimator kinds, restoring a
// snapshot into a fresh filter yields a byte-identical state, and the
// original and the restored filter then produce identical verdicts and
// identical subsequent snapshots (proving RNG continuity, not just state
// equality).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	meta := randx.New(1234)
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultConfig()
		cfg.Seed = int64(100 + trial)
		switch trial % 3 {
		case 1:
			cfg.Estimator = EstimatorEWMA
			cfg.EWMAAlpha = 0.3
		case 2:
			cfg.Estimator = EstimatorBatch
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dim := 4 + meta.Intn(6)
		rounds := 1 + meta.Intn(4)
		for r := 1; r <= rounds; r++ {
			n := 4 + meta.Intn(10)
			if _, err := f.Filter(randomBatch(meta, n, dim), r); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, r, err)
			}
		}

		blob, err := f.SnapshotState()
		if err != nil {
			t.Fatalf("trial %d: snapshot: %v", trial, err)
		}
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RestoreState(blob); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}

		// Byte-identical state: snapshotting both again must agree (both
		// draw the same next RNG seed from the aligned streams).
		blobF, err := f.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		blobG, err := g.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blobF, blobG) {
			t.Fatalf("trial %d (estimator %s): restored state not byte-identical", trial, cfg.Estimator)
		}

		// Behavioural continuity: the same future batch gets identical
		// verdicts and scores from the original and the restored filter.
		batch := randomBatch(meta, 10, dim)
		resF, err := f.Filter(cloneBatch(batch), rounds+1)
		if err != nil {
			t.Fatal(err)
		}
		resG, err := g.Filter(cloneBatch(batch), rounds+1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range resF.Decisions {
			if resF.Decisions[i] != resG.Decisions[i] {
				t.Fatalf("trial %d: decision %d diverged after restore: %v vs %v",
					trial, i, resF.Decisions[i], resG.Decisions[i])
			}
			if resF.Scores[i] != resG.Scores[i] {
				t.Fatalf("trial %d: score %d diverged after restore: %v vs %v",
					trial, i, resF.Scores[i], resG.Scores[i])
			}
		}
		if f.Rounds() != g.Rounds() {
			t.Fatalf("trial %d: rounds diverged: %d vs %d", trial, f.Rounds(), g.Rounds())
		}
	}
}

func TestSnapshotPreservesGroupHistory(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(7)
	for r := 1; r <= 3; r++ {
		if _, err := f.Filter(randomBatch(rng, 8, 5), r); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Snapshot()
	if len(st.Groups) == 0 {
		t.Fatal("snapshot lost all staleness groups")
	}
	var observations int
	for _, g := range st.Groups {
		observations += g.Count
	}
	if observations == 0 {
		t.Fatal("snapshot carries groups with zero observations")
	}

	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Restore(st); err != nil {
		t.Fatal(err)
	}
	if g.GroupCount() != len(st.Groups) {
		t.Errorf("restored %d groups, snapshot holds %d", g.GroupCount(), len(st.Groups))
	}
}

func TestRestoreRejectsDamagedState(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	if _, err := f.Filter(randomBatch(rng, 8, 4), 1); err != nil {
		t.Fatal(err)
	}
	good := f.Snapshot()

	cases := map[string]func(st *FilterState){
		"negative dim":      func(st *FilterState) { st.Dim = -1 },
		"negative rounds":   func(st *FilterState) { st.Rounds = -1 },
		"mean dim mismatch": func(st *FilterState) { st.Groups[0].Mean = []float64{1} },
		"negative count":    func(st *FilterState) { st.Groups[0].Count = -2 },
		"duplicate group":   func(st *FilterState) { st.Groups = append(st.Groups, st.Groups[0]) },
		"negative amnesty":  func(st *FilterState) { st.Amnesty = []AmnestyCredit{{ClientID: 1, Credits: -1}} },
		"duplicate amnesty": func(st *FilterState) {
			st.Amnesty = []AmnestyCredit{{ClientID: 1, Credits: 1}, {ClientID: 1, Credits: 2}}
		},
	}
	for name, damage := range cases {
		g, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Restore(good); err != nil {
			t.Fatal(err)
		}
		bad := f.Snapshot()
		damage(&bad)
		if err := g.Restore(bad); err == nil {
			t.Errorf("%s: damaged state accepted", name)
			continue
		}
		// All-or-nothing: the failed restore must leave prior state intact.
		if g.GroupCount() != len(good.Groups) || g.Rounds() != good.Rounds {
			t.Errorf("%s: failed restore disturbed existing state", name)
		}
	}

	if err := f.RestoreState([]byte("not a gob stream")); err == nil {
		t.Error("RestoreState accepted garbage bytes")
	}
}
