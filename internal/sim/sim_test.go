package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/defense"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
)

// tinyConfig returns a fast configuration for unit tests: a small client
// population on an easy synthetic task.
func tinyConfig() Config {
	return Config{
		NumClients:      20,
		NumMalicious:    4,
		AggregationGoal: 8,
		StalenessLimit:  10,
		Rounds:          6,
		Data: dataset.SyntheticConfig{
			Name: "tiny", NumClasses: 4, Dim: 10,
			TrainSize: 2000, TestSize: 400,
			Separation: 4, Noise: 1, Seed: 7,
		},
		PartitionAlpha: 0.5,
		PartitionSize:  60,
		Model:          model.Config{Arch: model.ArchLinear, InputDim: 10, NumClasses: 4},
		Trainer: fl.TrainerConfig{
			Epochs: 2, BatchSize: 16,
			Optim: optim.Config{Name: optim.SGDName, LR: 0.05, Momentum: 0.9},
		},
		LatencyModel: LatencyZipf,
		ZipfS:        1.2,
		Seed:         3,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no clients", func(c *Config) { c.NumClients = 0 }},
		{"too many malicious", func(c *Config) { c.NumMalicious = c.NumClients + 1 }},
		{"zero goal", func(c *Config) { c.AggregationGoal = 0 }},
		{"goal over population", func(c *Config) { c.AggregationGoal = c.NumClients + 1 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"negative staleness", func(c *Config) { c.StalenessLimit = -1 }},
		{"bad latency model", func(c *Config) { c.LatencyModel = "quantum" }},
		{"zipf without s", func(c *Config) { c.ZipfS = 0 }},
		{"oracle fraction 1", func(c *Config) { c.OracleShardFraction = 1 }},
		{"negative partition size", func(c *Config) { c.PartitionSize = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mutate(&cfg)
			if _, err := New(cfg, nil, nil); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestDefaultConfigsAreValid(t *testing.T) {
	for _, preset := range dataset.PresetNames() {
		cfg, err := Default(preset)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: default config invalid: %v", preset, err)
		}
		if cfg.NumClients != 100 || cfg.AggregationGoal != 40 || cfg.StalenessLimit != 20 {
			t.Errorf("%s: defaults don't match the paper's Section 5.1", preset)
		}
	}
	if _, err := Default("svhn"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestRunImprovesAccuracy(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumMalicious = 0
	s, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.8 {
		t.Errorf("final accuracy = %v, want >= 0.8 on an easy task", res.FinalAccuracy)
	}
	if res.Rounds != cfg.Rounds {
		t.Errorf("rounds = %d, want %d", res.Rounds, cfg.Rounds)
	}
	if res.SimTime <= 0 {
		t.Errorf("sim time = %v, want > 0", res.SimTime)
	}
	if res.FilterName != "fedbuff" || res.AttackName != "none" {
		t.Errorf("names: %q %q", res.FilterName, res.AttackName)
	}
	if len(res.History) == 0 {
		t.Error("history empty")
	}
	last := res.History[len(res.History)-1]
	if last.Round != cfg.Rounds || last.Accuracy != res.FinalAccuracy {
		t.Errorf("final history point mismatch: %+v", last)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Result {
		s, err := New(tinyConfig(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Errorf("same seed, different accuracy: %v vs %v", a.FinalAccuracy, b.FinalAccuracy)
	}
	if a.SimTime != b.SimTime {
		t.Errorf("same seed, different sim time")
	}
	if a.Accepted != b.Accepted || a.Rejected != b.Rejected {
		t.Errorf("same seed, different decision counts")
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	cfg := tinyConfig()
	s1, _ := New(cfg, nil, nil)
	cfg.Seed = 99
	s2, _ := New(cfg, nil, nil)
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalAccuracy == r2.FinalAccuracy && r1.SimTime == r2.SimTime {
		t.Error("different seeds produced identical runs")
	}
}

func TestGDAttackDegradesAccuracy(t *testing.T) {
	clean := tinyConfig()
	clean.NumMalicious = 0
	attacked := tinyConfig()
	attacked.NumMalicious = 6
	attacked.Attack = attack.Config{Name: attack.GDName, Scale: 2}

	sClean, _ := New(clean, nil, nil)
	rClean, err := sClean.Run()
	if err != nil {
		t.Fatal(err)
	}
	sAtk, _ := New(attacked, nil, nil)
	rAtk, err := sAtk.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rAtk.FinalAccuracy >= rClean.FinalAccuracy {
		t.Errorf("GD attack did not degrade accuracy: %v vs clean %v", rAtk.FinalAccuracy, rClean.FinalAccuracy)
	}
}

func TestAsyncFilterDetectsGD(t *testing.T) {
	cfg := tinyConfig()
	cfg.Rounds = 10
	cfg.NumMalicious = 5
	cfg.Attack = attack.Config{Name: attack.GDName, Scale: 2}
	af, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, af, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.TP == 0 {
		t.Error("AsyncFilter never rejected a malicious update under a scaled GD attack")
	}
	if res.Detection.Precision() < 0.5 {
		t.Errorf("detection precision = %v, want >= 0.5", res.Detection.Precision())
	}
}

func TestEvalEveryRecordsHistory(t *testing.T) {
	cfg := tinyConfig()
	cfg.EvalEvery = 2
	s, _ := New(cfg, nil, nil)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 2 and 4 plus the final round 6.
	if len(res.History) != 3 {
		t.Fatalf("history has %d points, want 3: %+v", len(res.History), res.History)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Round <= res.History[i-1].Round {
			t.Error("history rounds not increasing")
		}
	}
}

func TestStalenessLimitDropsUpdates(t *testing.T) {
	cfg := tinyConfig()
	cfg.StalenessLimit = 1
	cfg.Rounds = 8
	s, _ := New(cfg, nil, nil)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedStale == 0 {
		t.Error("staleness limit 1 with Zipf stragglers should drop updates")
	}
	if res.MeanStaleness > 1 {
		t.Errorf("mean staleness %v exceeds the limit", res.MeanStaleness)
	}
}

func TestLatencyModels(t *testing.T) {
	for _, lm := range []string{LatencyZipf, LatencyUniform, LatencyLogNormal} {
		cfg := tinyConfig()
		cfg.LatencyModel = lm
		s, err := New(cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", lm, err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: %v", lm, err)
		}
	}
}

func TestMaliciousClientsCount(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumMalicious = 7
	s, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.MaliciousClients()); got != 7 {
		t.Errorf("malicious clients = %d, want 7", got)
	}
}

func TestOracleRequiresShard(t *testing.T) {
	s, _ := New(tinyConfig(), nil, nil)
	if _, err := s.Oracle(); err == nil {
		t.Error("Oracle() without shard succeeded")
	}
}

func TestOracleBackedDefenses(t *testing.T) {
	cfg := tinyConfig()
	cfg.OracleShardFraction = 0.05
	cfg.Rounds = 4
	s, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := s.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.ReferenceDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("empty reference delta")
	}
	// Cached second call returns the same slice content.
	ref2, err := oracle.ReferenceDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	if &ref[0] != &ref2[0] {
		t.Error("oracle did not cache the reference delta")
	}

	// A full run with Zeno++ plugged in must work end to end. The filter
	// is wired to its own simulation's oracle, as the benches do it.
	simZeno, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	zenoOracle, err := simZeno.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	z, err := defense.NewZenoPP(zenoOracle, 1, 0.001, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := New(cfg, z, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run()
	if err != nil {
		t.Fatalf("Zeno++ run failed: %v", err)
	}
	if math.IsNaN(res.FinalAccuracy) {
		t.Error("NaN accuracy")
	}
}

func TestCombinerInjection(t *testing.T) {
	cfg := tinyConfig()
	med := defense.Median{}
	s, err := New(cfg, nil, med)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy <= 0.5 {
		t.Errorf("median combiner accuracy = %v, want > 0.5", res.FinalAccuracy)
	}
}

func TestRoundObserverReceivesCallbacks(t *testing.T) {
	cfg := tinyConfig()
	obs := &observingFilter{}
	s, err := New(cfg, obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.observed != cfg.Rounds {
		t.Errorf("ObserveRound called %d times, want %d", obs.observed, cfg.Rounds)
	}
	if obs.filtered == 0 {
		t.Error("Filter never called")
	}
}

type observingFilter struct {
	filtered int
	observed int
}

func (o *observingFilter) Name() string { return "observer" }
func (o *observingFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	o.filtered++
	return fl.AcceptAll(len(updates)), nil
}
func (o *observingFilter) ObserveRound(round int, global []float64, accepted []*fl.Update) {
	o.observed++
}

// brokenFilter fails every round.
type brokenFilter struct{ panics bool }

func (brokenFilter) Name() string { return "broken" }
func (b brokenFilter) Filter([]*fl.Update, int) (fl.FilterResult, error) {
	if b.panics {
		panic("broken filter")
	}
	return fl.FilterResult{}, errors.New("broken filter")
}

// TestFilterErrorIsFatal is the simulator's half of divergence (d) of the
// round characterisation (transport/round_char_test.go): the engine's
// accept-all fallback keeps a live server going, but a simulation whose
// filter failed measures nothing, so Run reports it instead.
func TestFilterErrorIsFatal(t *testing.T) {
	for _, f := range []brokenFilter{{}, {panics: true}} {
		s, err := New(tinyConfig(), f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "sim: filter") {
			t.Errorf("panics=%v: Run returned %v, want a filter error", f.panics, err)
		}
		if s.Version() != 0 {
			t.Errorf("panics=%v: the failed round was committed (version %d)", f.panics, s.Version())
		}
	}
}

func TestGlobalParamsCopy(t *testing.T) {
	s, _ := New(tinyConfig(), nil, nil)
	p := s.GlobalParams()
	p[0] += 1000
	q := s.GlobalParams()
	if q[0] == p[0] {
		t.Error("GlobalParams returned shared storage")
	}
	if s.Version() != 0 {
		t.Errorf("fresh simulation version = %d", s.Version())
	}
}

func TestDeferredUpdatesRequeue(t *testing.T) {
	// A filter that defers everything once would starve aggregation; defer
	// half to exercise the requeue path.
	cfg := tinyConfig()
	f := &deferHalf{}
	s, err := New(cfg, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferred == 0 {
		t.Error("no deferrals recorded")
	}
	if res.Rounds != cfg.Rounds {
		t.Errorf("rounds = %d, want %d", res.Rounds, cfg.Rounds)
	}
}

type deferHalf struct{}

func (deferHalf) Name() string { return "defer-half" }
func (deferHalf) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	res := fl.AcceptAll(len(updates))
	for i := range res.Decisions {
		if i%2 == 1 {
			res.Decisions[i] = fl.Defer
		}
	}
	return res, nil
}
