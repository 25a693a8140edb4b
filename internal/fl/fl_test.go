package fl

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

func testData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "t", NumClasses: 3, Dim: 8,
		TrainSize: 300, TestSize: 90,
		Separation: 4, Noise: 0.8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func testTrainerConfig() TrainerConfig {
	return TrainerConfig{
		Epochs:    3,
		BatchSize: 16,
		Optim:     optim.Config{Name: optim.SGDName, LR: 0.05, Momentum: 0.9},
	}
}

func TestLocalTrainImprovesModel(t *testing.T) {
	train, test := testData(t)
	m, err := model.New(model.Config{Arch: model.ArchLinear, InputDim: 8, NumClasses: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	accBefore, _ := model.Evaluate(m, test)
	delta, err := LocalTrain(m, train, testTrainerConfig(), randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	accAfter, _ := model.Evaluate(m, test)
	if accAfter <= accBefore {
		t.Errorf("accuracy did not improve: %v -> %v", accBefore, accAfter)
	}
	if accAfter < 0.9 {
		t.Errorf("accuracy after training = %v, want >= 0.9", accAfter)
	}
	if vecmath.Norm2(delta) == 0 {
		t.Error("training produced zero delta")
	}
}

func TestLocalTrainDeltaConsistency(t *testing.T) {
	train, _ := testData(t)
	m, _ := model.New(model.Config{Arch: model.ArchLinear, InputDim: 8, NumClasses: 3, Seed: 2})
	start := make([]float64, m.NumParams())
	m.Params(start)
	delta, err := LocalTrain(m, train, testTrainerConfig(), randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	end := make([]float64, m.NumParams())
	m.Params(end)
	if !vecmath.EqualApprox(vecmath.Added(start, delta), end, 1e-12) {
		t.Error("delta != trained params - start params")
	}
}

func TestLocalTrainDeterminism(t *testing.T) {
	train, _ := testData(t)
	run := func() []float64 {
		m, _ := model.New(model.Config{Arch: model.ArchLinear, InputDim: 8, NumClasses: 3, Seed: 3})
		delta, err := LocalTrain(m, train, testTrainerConfig(), randx.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return delta
	}
	if !vecmath.EqualApprox(run(), run(), 0) {
		t.Error("identical seeds produced different deltas")
	}
}

func TestLocalTrainValidation(t *testing.T) {
	train, _ := testData(t)
	m, _ := model.New(model.Config{Arch: model.ArchLinear, InputDim: 8, NumClasses: 3, Seed: 4})
	if _, err := LocalTrain(m, train, TrainerConfig{Epochs: 0, BatchSize: 8, Optim: optim.Config{Name: optim.SGDName, LR: 0.1}}, randx.New(1)); err == nil {
		t.Error("Epochs=0 accepted")
	}
	if _, err := LocalTrain(m, train, TrainerConfig{Epochs: 1, BatchSize: 0, Optim: optim.Config{Name: optim.SGDName, LR: 0.1}}, randx.New(1)); err == nil {
		t.Error("BatchSize=0 accepted")
	}
	empty := &dataset.Dataset{NumClasses: 3, Dim: 8}
	if _, err := LocalTrain(m, empty, testTrainerConfig(), randx.New(1)); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestStalenessWeight(t *testing.T) {
	if got := StalenessWeight(0, 0.5); got != 1 {
		t.Errorf("StalenessWeight(0) = %v, want 1", got)
	}
	if got := StalenessWeight(3, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("StalenessWeight(3, 0.5) = %v, want 0.5", got)
	}
	if got := StalenessWeight(5, 0); got != 1 {
		t.Errorf("disabled discount = %v, want 1", got)
	}
	if got := StalenessWeight(-2, 0.5); got != 1 {
		t.Errorf("negative staleness = %v, want 1", got)
	}
	if StalenessWeight(10, 0.5) >= StalenessWeight(1, 0.5) {
		t.Error("weight should decrease with staleness")
	}
}

func TestAggregateUniform(t *testing.T) {
	global := []float64{0, 0}
	updates := []*Update{
		{ClientID: 1, Delta: []float64{2, 0}, NumSamples: 10},
		{ClientID: 2, Delta: []float64{0, 4}, NumSamples: 10},
	}
	weights, err := Aggregate(global, updates, AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.EqualApprox(global, []float64{1, 2}, 1e-12) {
		t.Errorf("global = %v, want [1 2]", global)
	}
	if !vecmath.EqualApprox(weights, []float64{0.5, 0.5}, 1e-12) {
		t.Errorf("weights = %v", weights)
	}
}

func TestAggregateSampleWeighted(t *testing.T) {
	global := []float64{0}
	updates := []*Update{
		{Delta: []float64{1}, NumSamples: 30},
		{Delta: []float64{5}, NumSamples: 10},
	}
	if _, err := Aggregate(global, updates, AggregatorConfig{SampleWeighted: true}); err != nil {
		t.Fatal(err)
	}
	// (30*1 + 10*5)/40 = 2
	if math.Abs(global[0]-2) > 1e-12 {
		t.Errorf("global = %v, want 2", global[0])
	}
}

func TestAggregateStalenessDiscount(t *testing.T) {
	global := []float64{0}
	updates := []*Update{
		{Delta: []float64{1}, Staleness: 0, NumSamples: 1},
		{Delta: []float64{1}, Staleness: 8, NumSamples: 1},
	}
	weights, err := Aggregate(global, updates, AggregatorConfig{StalenessExponent: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if weights[1] >= weights[0] {
		t.Errorf("stale update weight %v >= fresh weight %v", weights[1], weights[0])
	}
}

func TestAggregateServerLR(t *testing.T) {
	global := []float64{0}
	updates := []*Update{{Delta: []float64{2}, NumSamples: 1}}
	if _, err := Aggregate(global, updates, AggregatorConfig{ServerLR: 0.5}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(global[0]-1) > 1e-12 {
		t.Errorf("global = %v, want 1", global[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	global := []float64{0, 0}
	if _, err := Aggregate(global, []*Update{{Delta: []float64{1}}}, AggregatorConfig{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	got, err := Aggregate(global, nil, AggregatorConfig{})
	if err != nil || got != nil {
		t.Errorf("empty aggregation: weights=%v err=%v", got, err)
	}
}

func TestPropertyAggregateConvexHull(t *testing.T) {
	// With uniform weights and no discount, the applied step equals the
	// mean delta, which must lie inside the per-coordinate hull.
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%6) + 1
		r := randx.New(seed)
		updates := make([]*Update, k)
		for i := range updates {
			updates[i] = &Update{Delta: randx.NormalVector(r, 4, 0, 5), NumSamples: 1}
		}
		global := make([]float64, 4)
		if _, err := Aggregate(global, updates, AggregatorConfig{}); err != nil {
			return false
		}
		for j := 0; j < 4; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range updates {
				lo = math.Min(lo, u.Delta[j])
				hi = math.Max(hi, u.Delta[j])
			}
			if global[j] < lo-1e-9 || global[j] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneUpdate(t *testing.T) {
	u := &Update{ClientID: 3, Delta: []float64{1, 2}, Staleness: 4}
	c := CloneUpdate(u)
	c.Delta[0] = 99
	if u.Delta[0] != 1 {
		t.Error("CloneUpdate shares delta storage")
	}
	if c.ClientID != 3 || c.Staleness != 4 {
		t.Error("CloneUpdate dropped fields")
	}
}

func TestDecisionString(t *testing.T) {
	if Accept.String() != "accept" || Defer.String() != "defer" || Reject.String() != "reject" {
		t.Error("Decision strings wrong")
	}
	if Decision(0).String() == "accept" {
		t.Error("zero Decision should not stringify as accept")
	}
}

func TestFilterResultSplit(t *testing.T) {
	updates := []*Update{{ClientID: 1}, {ClientID: 2}, {ClientID: 3}}
	res := FilterResult{Decisions: []Decision{Accept, Reject, Defer}}
	acc, def, rej := res.Split(updates)
	if len(acc) != 1 || acc[0].ClientID != 1 {
		t.Errorf("accepted = %v", acc)
	}
	if len(def) != 1 || def[0].ClientID != 3 {
		t.Errorf("deferred = %v", def)
	}
	if len(rej) != 1 || rej[0].ClientID != 2 {
		t.Errorf("rejected = %v", rej)
	}
}

func TestPassthroughAcceptsAll(t *testing.T) {
	updates := []*Update{{ClientID: 1}, {ClientID: 2}}
	res, err := Passthrough{}.Filter(updates, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Decisions {
		if d != Accept {
			t.Errorf("decision[%d] = %v, want accept", i, d)
		}
	}
	if (Passthrough{}).Name() != "fedbuff" {
		t.Error("Passthrough name should be fedbuff")
	}
}

func TestBufferBasics(t *testing.T) {
	b, err := NewBuffer(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Ready() {
		t.Error("empty buffer reports ready")
	}
	if !b.Add(&Update{Staleness: 0}) {
		t.Error("fresh update rejected")
	}
	if b.Add(&Update{Staleness: 6}) {
		t.Error("over-limit staleness accepted")
	}
	b.Add(&Update{Staleness: 5}) // at the limit: accepted
	if !b.Ready() {
		t.Error("buffer at goal not ready")
	}
	got := b.Drain()
	if len(got) != 2 || b.Len() != 0 {
		t.Errorf("drain returned %d, buffer len %d", len(got), b.Len())
	}
	received, dropped := b.Stats()
	if received != 3 || dropped != 1 {
		t.Errorf("stats = %d received, %d dropped", received, dropped)
	}
}

func TestBufferValidation(t *testing.T) {
	if _, err := NewBuffer(0, 5); err == nil {
		t.Error("goal=0 accepted")
	}
}

func TestBufferNoLimit(t *testing.T) {
	b, _ := NewBuffer(1, 0)
	if !b.Add(&Update{Staleness: 1000}) {
		t.Error("limit disabled but stale update rejected")
	}
}

func TestBufferRequeue(t *testing.T) {
	b, _ := NewBuffer(3, 4)
	if n := b.Requeue([]*Update{{Staleness: 2}, {Staleness: 4}}); n != 1 {
		t.Fatalf("Requeue reported %d dropped, want 1", n)
	}
	if b.Len() != 1 {
		t.Fatalf("requeue kept %d updates, want 1 (the other crossed the limit)", b.Len())
	}
	u := b.Drain()[0]
	if u.Staleness != 3 {
		t.Errorf("requeued staleness = %d, want 3", u.Staleness)
	}
	_, dropped := b.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestBufferOldestBase(t *testing.T) {
	b, _ := NewBuffer(2, 0)
	if _, ok := b.OldestBase(); ok {
		t.Error("empty buffer reported an oldest base")
	}
	b.Add(&Update{BaseVersion: 7})
	b.Add(&Update{BaseVersion: 3})
	b.Add(&Update{BaseVersion: 9})
	if oldest, ok := b.OldestBase(); !ok || oldest != 3 {
		t.Errorf("OldestBase = %d, %v, want 3, true", oldest, ok)
	}
}

func TestBufferShedStalestFirst(t *testing.T) {
	b, _ := NewBuffer(2, 0)
	// Arrival order deliberately scrambled relative to BaseVersion; the
	// recorded Staleness fields are garbage on purpose — shedding must
	// order by BaseVersion, not by the stored staleness (which was
	// computed at different arrival versions and is not comparable).
	for _, u := range []*Update{
		{ClientID: 0, BaseVersion: 5, Staleness: 99},
		{ClientID: 1, BaseVersion: 2, Staleness: 0},
		{ClientID: 2, BaseVersion: 8, Staleness: 50},
		{ClientID: 3, BaseVersion: 2, Staleness: 7},
		{ClientID: 4, BaseVersion: 6, Staleness: 1},
	} {
		b.Add(u)
	}
	shed := b.Shed(3)
	if len(shed) != 3 {
		t.Fatalf("shed %d updates, want 3", len(shed))
	}
	// Victims: both BaseVersion-2 updates (earlier arrival first), then
	// BaseVersion 5.
	wantIDs := []int{1, 3, 0}
	for i, u := range shed {
		if u.ClientID != wantIDs[i] {
			t.Errorf("shed[%d] = client %d (base %d), want client %d",
				i, u.ClientID, u.BaseVersion, wantIDs[i])
		}
	}
	// Survivors keep arrival order.
	kept := b.Drain()
	if len(kept) != 2 || kept[0].ClientID != 2 || kept[1].ClientID != 4 {
		t.Errorf("survivors wrong: %+v", kept)
	}
}

func TestBufferShedBounds(t *testing.T) {
	b, _ := NewBuffer(2, 0)
	if got := b.Shed(3); got != nil {
		t.Errorf("shedding an empty buffer returned %v", got)
	}
	b.Add(&Update{BaseVersion: 1})
	b.Add(&Update{BaseVersion: 2})
	if got := b.Shed(0); got != nil {
		t.Errorf("Shed(0) returned %v", got)
	}
	if got := b.Shed(10); len(got) != 2 || b.Len() != 0 {
		t.Errorf("oversized shed returned %d, left %d buffered", len(got), b.Len())
	}
}

func TestBufferShedDoesNotDisarmReady(t *testing.T) {
	b, _ := NewBuffer(2, 0)
	b.Add(&Update{BaseVersion: 0})
	b.Add(&Update{BaseVersion: 1})
	b.Add(&Update{BaseVersion: 2})
	b.Shed(1)
	if !b.Ready() {
		t.Error("buffer at goal with fresh arrivals lost readiness after a shed")
	}
}

func TestBufferAccessors(t *testing.T) {
	b, _ := NewBuffer(7, 9)
	if b.Goal() != 7 || b.StalenessLimit() != 9 {
		t.Errorf("accessors: goal=%d limit=%d", b.Goal(), b.StalenessLimit())
	}
}

// TestBufferRequeueDoesNotRearmReady is the regression test for the
// partial-drain tight loop: after a watchdog drains a partial buffer and
// the deferred remainder is requeued past the goal, Ready must stay false
// until a fresh update arrives — otherwise every Ready poll would
// re-aggregate the same deferred batch with no new information.
func TestBufferRequeueDoesNotRearmReady(t *testing.T) {
	b, _ := NewBuffer(2, 0)
	b.Add(&Update{ClientID: 1})
	b.Add(&Update{ClientID: 2})
	b.Add(&Update{ClientID: 3})
	if !b.Ready() {
		t.Fatal("buffer past goal with fresh updates not ready")
	}
	deferred := b.Drain()
	if b.Ready() {
		t.Fatal("drained buffer still ready")
	}

	b.Requeue(deferred)
	if b.Len() < b.Goal() {
		t.Fatalf("requeue kept %d updates, goal is %d; test needs len >= goal", b.Len(), b.Goal())
	}
	if b.Ready() {
		t.Error("requeued deferrals alone re-armed Ready (tight-loop regression)")
	}

	b.Add(&Update{ClientID: 4})
	if !b.Ready() {
		t.Error("fresh arrival on a full buffer did not arm Ready")
	}
}

func TestBufferSnapshotRestore(t *testing.T) {
	b, _ := NewBuffer(3, 5)
	b.Add(&Update{ClientID: 1, BaseVersion: 2, Staleness: 1, Delta: []float64{1, 2}, NumSamples: 7})
	b.Add(&Update{ClientID: 2, BaseVersion: 3, Staleness: 0, Delta: []float64{3, 4}, NumSamples: 9})
	b.Add(&Update{ClientID: 3, Staleness: 9}) // dropped for staleness
	st := b.Snapshot()

	// The snapshot must be a deep copy: mutating it cannot reach back.
	st.Updates[0].Delta[0] = 99
	if b.Drain()[0].Delta[0] == 99 {
		t.Fatal("snapshot shares delta storage with the buffer")
	}
	st.Updates[0].Delta[0] = 1

	r, _ := NewBuffer(3, 5)
	r.Restore(st)
	if r.Len() != 2 {
		t.Fatalf("restored %d updates, want 2", r.Len())
	}
	received, dropped := r.Stats()
	if received != 3 || dropped != 1 {
		t.Errorf("restored stats = %d received, %d dropped; want 3, 1", received, dropped)
	}
	// Restored updates count as fresh: one more arrival reaches the goal.
	if r.Ready() {
		t.Error("restored buffer below goal reports ready")
	}
	r.Add(&Update{ClientID: 4, Delta: []float64{5, 6}})
	if !r.Ready() {
		t.Error("restored buffer at goal with fresh arrival not ready")
	}
	got := r.Drain()
	if got[0].ClientID != 1 || got[0].Delta[1] != 2 || got[1].NumSamples != 9 {
		t.Errorf("restored updates lost fields: %+v %+v", got[0], got[1])
	}
}
