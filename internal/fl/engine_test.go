package fl

import (
	"errors"
	"math"
	"testing"
)

// scriptFilter returns fixed verdicts, an error, or panics.
type scriptFilter struct {
	decisions []Decision
	err       error
	panics    bool
	calls     int
}

func (f *scriptFilter) Name() string { return "script" }
func (f *scriptFilter) Filter(updates []*Update, round int) (FilterResult, error) {
	f.calls++
	if f.panics {
		panic("scripted filter panic")
	}
	return FilterResult{Decisions: f.decisions}, f.err
}

// sumCombiner is a non-mean combiner: the delta is the plain sum.
type sumCombiner struct {
	err    error
	panics bool
	calls  int
}

func (c *sumCombiner) Name() string { return "sum" }
func (c *sumCombiner) Combine(updates []*Update, _ AggregatorConfig) ([]float64, error) {
	c.calls++
	if c.panics {
		panic("scripted combiner panic")
	}
	if c.err != nil {
		return nil, c.err
	}
	delta := make([]float64, len(updates[0].Delta))
	for _, u := range updates {
		for i, d := range u.Delta {
			delta[i] += d
		}
	}
	return delta, nil
}

func engineBatch() []*Update {
	return []*Update{
		{ClientID: 0, Delta: []float64{1, 2}},
		{ClientID: 1, Delta: []float64{10, 20}},
		{ClientID: 2, Delta: []float64{100, 200}},
	}
}

func engineQueue(t *testing.T, limit int) *Buffer {
	t.Helper()
	q, err := NewBuffer(1, limit)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEngineRoundSequence(t *testing.T) {
	f := &scriptFilter{decisions: []Decision{Accept, Defer, Reject}}
	c := &sumCombiner{}
	e := NewEngine(f, c, AggregatorConfig{})
	batch := engineBatch()

	rd := e.Decide(batch, 4)
	if rd.Number != 5 || len(rd.Accepted) != 1 || len(rd.Deferred) != 1 || len(rd.Rejected) != 1 {
		t.Fatalf("round %+v", rd)
	}
	if rd.FilterErr != nil || rd.CombineErr != nil || rd.Panics != 0 {
		t.Fatalf("clean round reported a failure: %+v", rd)
	}

	global := []float64{0.5, 0.5}
	q := engineQueue(t, 0)
	if v := e.Commit(&rd, global, q); v != 5 {
		t.Errorf("Commit returned version %d, want 5", v)
	}
	if global[0] != 1.5 || global[1] != 2.5 {
		t.Errorf("global = %v, want [1.5 2.5]", global)
	}
	if q.Len() != 1 || q.Drain()[0] != batch[1] {
		t.Error("the deferred update did not return to the queue")
	}
	e.Observe(&rd) // the filter is no RoundObserver: a no-op
}

func TestEngineEmptyBatchSkipsFilterAndStillAdvances(t *testing.T) {
	f, c := &scriptFilter{}, &sumCombiner{}
	e := NewEngine(f, c, AggregatorConfig{})
	rd := e.Decide(nil, 0)
	global := []float64{1}
	if v := e.Commit(&rd, global, engineQueue(t, 0)); v != 1 || global[0] != 1 {
		t.Errorf("empty round: version %d, global %v", v, global)
	}
	if f.calls != 0 || c.calls != 0 {
		t.Errorf("empty batch reached the filter (%d calls) or the combiner (%d calls)", f.calls, c.calls)
	}
}

// A round with nothing accepted never calls the combiner, commits no
// delta and still advances the version.
func TestEngineNothingAcceptedSkipsCombiner(t *testing.T) {
	c := &sumCombiner{}
	e := NewEngine(&scriptFilter{decisions: []Decision{Reject, Reject, Reject}}, c, AggregatorConfig{})
	rd := e.Decide(engineBatch(), 0)
	if c.calls != 0 || rd.Delta != nil || len(rd.Rejected) != 3 {
		t.Errorf("combiner calls %d, round %+v", c.calls, rd)
	}
}

// TestEngineFilterFailureFallsBackAndReports pins divergence (d) of the
// round characterisation (transport/round_char_test.go): a failing filter
// degrades the round to accept-all AND is reported, so a server can carry
// on while the simulator treats the report as fatal.
func TestEngineFilterFailureFallsBackAndReports(t *testing.T) {
	cases := map[string]struct {
		filter     *scriptFilter
		wantPanics int
	}{
		"error":           {&scriptFilter{err: errors.New("boom")}, 0},
		"panic":           {&scriptFilter{panics: true}, 1},
		"short decisions": {&scriptFilter{decisions: []Decision{Accept}}, 0},
	}
	for name, tc := range cases {
		rd := NewEngine(tc.filter, nil, AggregatorConfig{}).Decide(engineBatch(), 0)
		if rd.FilterErr == nil {
			t.Errorf("%s: failure not reported", name)
		}
		if len(rd.Accepted) != 3 || len(rd.Result.Decisions) != 3 || rd.Delta == nil {
			t.Errorf("%s: no accept-all fallback: %+v", name, rd)
		}
		if rd.Panics != tc.wantPanics {
			t.Errorf("%s: %d recovered panics, want %d", name, rd.Panics, tc.wantPanics)
		}
	}
}

func TestEngineCombinerFailureCommitsWithoutDelta(t *testing.T) {
	for name, c := range map[string]*sumCombiner{
		"error": {err: errors.New("boom")},
		"panic": {panics: true},
	} {
		e := NewEngine(nil, c, AggregatorConfig{})
		rd := e.Decide(engineBatch(), 7)
		if rd.CombineErr == nil || rd.Delta != nil || len(rd.Accepted) != 3 {
			t.Errorf("%s: round %+v", name, rd)
		}
		if want := map[string]int{"error": 0, "panic": 1}[name]; rd.Panics != want {
			t.Errorf("%s: %d recovered panics, want %d", name, rd.Panics, want)
		}
		global := []float64{1, 1}
		if v := e.Commit(&rd, global, engineQueue(t, 0)); v != 8 || global[0] != 1 || global[1] != 1 {
			t.Errorf("%s: version %d, global %v; want 8 and an untouched model", name, v, global)
		}
	}
}

// ServerLR scales the delta of every combiner by one rule; the mean
// combiner returns the unscaled mean so it is not scaled twice.
func TestEngineServerLROneRule(t *testing.T) {
	agg := AggregatorConfig{ServerLR: 0.5}
	for name, tc := range map[string]struct {
		combiner Combiner
		want     float64
	}{
		"sum":  {&sumCombiner{}, 0.5 * 111},
		"mean": {nil, 0.5 * 37},
	} {
		e := NewEngine(nil, tc.combiner, agg)
		rd := e.Decide(engineBatch(), 0)
		global := []float64{0, 0}
		e.Commit(&rd, global, engineQueue(t, 0))
		if math.Abs(global[0]-tc.want) > 1e-12 {
			t.Errorf("%s: global[0] = %v, want %v", name, global[0], tc.want)
		}
	}
}

// TestEngineAgesDeferredByOneRound pins divergence (c) of the round
// characterisation: every commit ages the deferred updates by exactly one
// round. For updates whose staleness was version − BaseVersion at decide
// time (the server recomputes it at drain) that is again version −
// BaseVersion; for a root's updates, whose base versions are edge-local,
// it is the only rule there is.
func TestEngineAgesDeferredByOneRound(t *testing.T) {
	e := NewEngine(&scriptFilter{decisions: []Decision{Defer, Defer, Defer}}, nil, AggregatorConfig{})
	const version, limit = 9, 4
	batch := []*Update{
		{ClientID: 0, BaseVersion: 7, Staleness: version - 7, Delta: []float64{1}},
		{ClientID: 1, BaseVersion: 1000, Staleness: 3, Delta: []float64{1}}, // edge-local base
		{ClientID: 2, BaseVersion: 5, Staleness: version - 5, Delta: []float64{1}},
	}
	rd := e.Decide(batch, version)
	q := engineQueue(t, limit)
	next := e.Commit(&rd, []float64{0}, q)

	if rd.DroppedStale != 1 || q.Len() != 2 {
		t.Fatalf("dropped %d, kept %d; want 1 and 2 (staleness 5 is past the limit)", rd.DroppedStale, q.Len())
	}
	kept := q.Drain()
	if kept[0].Staleness != next-kept[0].BaseVersion {
		t.Errorf("server-style update aged to %d, want version − base = %d", kept[0].Staleness, next-kept[0].BaseVersion)
	}
	if kept[1].Staleness != 4 {
		t.Errorf("edge-local update aged to %d, want 4", kept[1].Staleness)
	}
}

// recordingObserver is a pass-through filter that hears about rounds.
type recordingObserver struct {
	Passthrough
	rounds   []int
	global   []float64
	accepted int
	panics   bool
}

func (o *recordingObserver) ObserveRound(round int, global []float64, accepted []*Update) {
	if o.panics {
		panic("scripted observer panic")
	}
	o.rounds = append(o.rounds, round)
	o.global = global
	o.accepted = len(accepted)
}

func TestEngineObserve(t *testing.T) {
	obs := &recordingObserver{}
	e := NewEngine(obs, &sumCombiner{}, AggregatorConfig{})
	rd := e.Decide(engineBatch(), 2)
	global := []float64{0, 0}
	e.Commit(&rd, global, engineQueue(t, 0))
	global[0] = -1 // the caller's model moves on before Observe runs outside its lock
	e.Observe(&rd)
	if len(obs.rounds) != 1 || obs.rounds[0] != 3 || obs.accepted != 3 {
		t.Fatalf("observer saw rounds %v, %d accepted", obs.rounds, obs.accepted)
	}
	if obs.global[0] != 111 || obs.global[1] != 222 {
		t.Errorf("observer saw model %v, want the committed [111 222]", obs.global)
	}

	obs.panics = true
	rd = e.Decide(engineBatch(), 3)
	e.Commit(&rd, global, engineQueue(t, 0))
	e.Observe(&rd)
	if rd.Panics != 1 {
		t.Errorf("observer panic: %d recovered, want 1", rd.Panics)
	}
}
