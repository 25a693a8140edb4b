package core

import (
	"bytes"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// recordingObserver captures filter telemetry in arrival order.
type recordingObserver struct {
	decisions []fl.DecisionEvent
	rounds    []fl.FilterRoundEvent
}

func (r *recordingObserver) ObserveDecision(ev fl.DecisionEvent) {
	r.decisions = append(r.decisions, ev)
}
func (r *recordingObserver) ObserveFilterRound(ev fl.FilterRoundEvent) {
	r.rounds = append(r.rounds, ev)
}

// Every Filter call must emit one event per update whose verdict and
// score match the returned FilterResult exactly, plus one round summary
// whose tallies add up.
func TestObserverEventsMatchResult(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	rec := &recordingObserver{}
	f.SetObserver(rec)

	updates, _ := makeBatch(1, map[int]int{0: 20, 1: 15}, 8, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(rec.decisions) != len(updates) {
		t.Fatalf("decision events = %d, want %d", len(rec.decisions), len(updates))
	}
	var acc, def, rej int
	for i, ev := range rec.decisions {
		if ev.ClientID != updates[i].ClientID {
			t.Errorf("event %d: client %d, want %d", i, ev.ClientID, updates[i].ClientID)
		}
		if ev.Round != 1 {
			t.Errorf("event %d: round %d, want 1", i, ev.Round)
		}
		if ev.Decision != res.Decisions[i] {
			t.Errorf("event %d: decision %v, want %v", i, ev.Decision, res.Decisions[i])
		}
		if !vecmath.ExactEqual(ev.Score, res.Scores[i]) {
			t.Errorf("event %d: score %v, want %v", i, ev.Score, res.Scores[i])
		}
		if ev.Group != updates[i].Staleness {
			t.Errorf("event %d: group %d, want %d", i, ev.Group, updates[i].Staleness)
		}
		if ev.Cluster < 0 || ev.Cluster >= f.cfg.K {
			t.Errorf("event %d: cluster %d out of range", i, ev.Cluster)
		}
		switch ev.Decision {
		case fl.Defer:
			def++
		case fl.Reject:
			rej++
		default:
			acc++
		}
	}

	if len(rec.rounds) != 1 {
		t.Fatalf("round events = %d, want 1", len(rec.rounds))
	}
	round := rec.rounds[0]
	if round.Batch != len(updates) || round.Accepted != acc || round.Deferred != def || round.Rejected != rej {
		t.Errorf("round summary %+v does not match tallies (%d/%d/%d)", round, acc, def, rej)
	}
	if round.Wholesale {
		t.Error("full batch marked wholesale")
	}
	if rej == 0 {
		t.Error("poisoned batch produced no reject events")
	}
}

// Small batches are accepted wholesale: events must say so (cluster -1).
func TestObserverWholesaleBatch(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	rec := &recordingObserver{}
	f.SetObserver(rec)

	updates, _ := makeBatch(2, map[int]int{0: 3}, 0, 0.3)
	if _, err := f.Filter(updates, 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.decisions) != 3 || len(rec.rounds) != 1 {
		t.Fatalf("events: %d decisions, %d rounds", len(rec.decisions), len(rec.rounds))
	}
	for _, ev := range rec.decisions {
		if ev.Cluster != -1 || ev.Decision != fl.Accept {
			t.Errorf("wholesale event: %+v", ev)
		}
	}
	if !rec.rounds[0].Wholesale {
		t.Error("round event not marked wholesale")
	}
}

// An empty batch emits nothing.
func TestObserverEmptyBatch(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	rec := &recordingObserver{}
	f.SetObserver(rec)
	if _, err := f.Filter(nil, 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.decisions) != 0 || len(rec.rounds) != 0 {
		t.Fatalf("empty batch emitted events: %+v %+v", rec.decisions, rec.rounds)
	}
}

// Amnesty flips are flagged: a client rejected in round 1 holds a credit
// that converts its round-2 rejection to accept, and the event says so.
func TestObserverAmnestyFlag(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	rec := &recordingObserver{}
	f.SetObserver(rec)

	mkRound := func(round int) {
		updates, _ := makeBatch(int64(round), map[int]int{0: 20, 1: 15}, 8, 0.3)
		if _, err := f.Filter(updates, round); err != nil {
			t.Fatal(err)
		}
	}
	mkRound(1)
	firstRejects := map[int]bool{}
	for _, ev := range rec.decisions {
		if ev.Decision == fl.Reject {
			firstRejects[ev.ClientID] = true
		}
	}
	if len(firstRejects) == 0 {
		t.Fatal("round 1 rejected nothing; cannot exercise amnesty")
	}
	rec.decisions = nil
	mkRound(2)
	amnestied := 0
	for _, ev := range rec.decisions {
		if ev.Amnesty {
			amnestied++
			if ev.Decision != fl.Accept {
				t.Errorf("amnesty event with decision %v", ev.Decision)
			}
			if !firstRejects[ev.ClientID] {
				t.Errorf("client %d amnestied without a prior rejection", ev.ClientID)
			}
		}
	}
	if amnestied == 0 {
		t.Error("no amnesty flips observed in round 2 (attackers repeat in makeBatch)")
	}
}

// Attaching an observer must not change any filter outcome: identical
// inputs and seeds produce identical decisions, scores and — the
// strongest check — byte-identical serialized filter state.
func TestObserverNeutrality(t *testing.T) {
	run := func(obs fl.FilterObserver) ([]fl.FilterResult, []byte) {
		f := mustNew(t, DefaultConfig())
		if obs != nil {
			f.SetObserver(obs)
		}
		var results []fl.FilterResult
		for round := 1; round <= 4; round++ {
			updates, _ := makeBatch(int64(round), map[int]int{0: 18, 2: 12}, 6, 0.4)
			res, err := f.Filter(updates, round)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		state, err := f.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return results, state
	}

	plain, plainState := run(nil)
	observed, observedState := run(&recordingObserver{})

	for r := range plain {
		for i, d := range plain[r].Decisions {
			if observed[r].Decisions[i] != d {
				t.Fatalf("round %d update %d: decision %v vs %v", r, i, d, observed[r].Decisions[i])
			}
		}
		for i, s := range plain[r].Scores {
			if !vecmath.ExactEqual(s, observed[r].Scores[i]) {
				t.Fatalf("round %d: score %d differs", r, i)
			}
		}
	}
	if !bytes.Equal(plainState, observedState) {
		t.Fatal("observer changed serialized filter state")
	}
}

// FilterRoundEvent.Groups is the number of live staleness groups of the
// round: every group the filter tracks under the persistent estimators,
// the batch's own groups under EstimatorBatch (which keeps nothing between
// rounds, and used to report 0).
func TestObserverGroupsCountsLiveGroups(t *testing.T) {
	for _, est := range []string{EstimatorMA, EstimatorBatch, EstimatorEWMA} {
		t.Run(est, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Estimator, cfg.EWMAAlpha = est, 0.3
			f := mustNew(t, cfg)
			rec := &recordingObserver{}
			f.SetObserver(rec)

			first, _ := makeBatch(1, map[int]int{0: 10, 1: 10, 4: 10}, 0, 0.3)
			second, _ := makeBatch(2, map[int]int{1: 12, 7: 12}, 0, 0.3)
			for round, batch := range [][]*fl.Update{first, second} {
				if _, err := f.Filter(batch, round+1); err != nil {
					t.Fatal(err)
				}
			}
			want := []int{3, 4} // {0,1,4}, then {0,1,4,7}
			if est == EstimatorBatch {
				want = []int{3, 2} // {0,1,4}, then {1,7}
			}
			for i, ev := range rec.rounds {
				if ev.Groups != want[i] {
					t.Errorf("round %d: Groups = %d, want %d", i+1, ev.Groups, want[i])
				}
			}
		})
	}
}
