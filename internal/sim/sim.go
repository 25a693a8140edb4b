// Package sim implements a deterministic event-driven simulator for
// asynchronous federated learning with FedBuff-style buffered aggregation,
// reproducing the scheduling semantics of the paper's PLATO testbed:
// clients with Zipf-distributed speeds train continuously, the server
// aggregates whenever the buffer reaches the aggregation goal, stale
// updates beyond the server limit are discarded, and malicious clients
// collude to replace their honest updates with crafted poison right before
// aggregation.
package sim

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/stats"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// LatencyModel names.
const (
	LatencyZipf      = "zipf"
	LatencyUniform   = "uniform"
	LatencyLogNormal = "lognormal"
)

// Config describes one simulated AFL deployment. Defaults (selected by
// Default) mirror the paper's Section 5.1 settings.
type Config struct {
	// NumClients is the client population (paper: 100).
	NumClients int
	// NumMalicious clients are controlled by the attacker (paper: 20).
	NumMalicious int
	// AggregationGoal is the buffer size that triggers aggregation
	// (paper: 40).
	AggregationGoal int
	// StalenessLimit is the maximum tolerated staleness (paper: 20);
	// 0 disables the limit.
	StalenessLimit int
	// Rounds is the number of server aggregations to run.
	Rounds int

	// Data configures the synthetic dataset standing in for the paper's
	// image corpora.
	Data dataset.SyntheticConfig
	// PartitionAlpha is the Dirichlet concentration for non-IID partitions
	// (paper default 0.1); <= 0 selects IID partitioning.
	PartitionAlpha float64
	// PartitionSize fixes each client's local dataset size, mirroring the
	// paper's Table 1 (every client trains on the same number of samples,
	// with the Dirichlet draw shaping only the label mix). Zero selects
	// TrainSize / NumClients.
	PartitionSize int

	// Model configures the trained classifier.
	Model model.Config
	// Trainer configures client local optimization.
	Trainer fl.TrainerConfig
	// Aggregator configures server aggregation weighting.
	Aggregator fl.AggregatorConfig

	// LatencyModel selects the client speed distribution.
	LatencyModel string
	// ZipfS is the Zipf exponent for client speeds (paper: 1.2; 2.5 in the
	// speed-heterogeneity study).
	ZipfS float64

	// Attack configures the poisoning attack mounted by malicious clients.
	Attack attack.Config

	// DropoutRate is the probability that a finished update is lost in
	// transit (the client restarts training regardless) — failure
	// injection for robustness testing. 0 disables.
	DropoutRate float64
	// CrashRate is the probability that a client crashes after finishing
	// a task; a crashed client stays offline for roughly ten task
	// durations before rejoining. 0 disables.
	CrashRate float64

	// EvalEvery evaluates test accuracy every EvalEvery rounds (0 = final
	// round only). The final round is always evaluated.
	EvalEvery int
	// TraceWriter, when non-nil, receives one JSON TraceRecord line per
	// aggregation round.
	TraceWriter io.Writer
	// OracleShardFraction, when positive, reserves this fraction of the
	// training data as a clean server-side shard for oracle-based defenses
	// (Zeno++/AFLGuard). The shard is removed from client partitions.
	OracleShardFraction float64

	// Seed drives every random choice in the simulation.
	Seed int64
}

// Default returns the paper's default configuration for the given dataset
// preset name.
func Default(preset string) (Config, error) {
	data, err := dataset.Preset(preset)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		NumClients:      100,
		NumMalicious:    20,
		AggregationGoal: 40,
		StalenessLimit:  20,
		Rounds:          30,
		Data:            data,
		PartitionAlpha:  0.1,
		LatencyModel:    LatencyZipf,
		ZipfS:           1.2,
		EvalEvery:       0,
		Seed:            1,
	}
	cfg.Model, cfg.Trainer = PresetModelAndTrainer(preset, data)
	return cfg, nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.NumClients < 1:
		return fmt.Errorf("sim: NumClients = %d, need >= 1", c.NumClients)
	case c.NumMalicious < 0 || c.NumMalicious > c.NumClients:
		return fmt.Errorf("sim: NumMalicious = %d, need [0, NumClients]", c.NumMalicious)
	case c.AggregationGoal < 1 || c.AggregationGoal > c.NumClients:
		return fmt.Errorf("sim: AggregationGoal = %d, need [1, NumClients]", c.AggregationGoal)
	case c.Rounds < 1:
		return fmt.Errorf("sim: Rounds = %d, need >= 1", c.Rounds)
	case c.StalenessLimit < 0:
		return fmt.Errorf("sim: StalenessLimit = %d, need >= 0", c.StalenessLimit)
	case c.OracleShardFraction < 0 || c.OracleShardFraction >= 1:
		return fmt.Errorf("sim: OracleShardFraction = %v, need [0, 1)", c.OracleShardFraction)
	case c.PartitionSize < 0:
		return fmt.Errorf("sim: PartitionSize = %d, need >= 0", c.PartitionSize)
	case c.DropoutRate < 0 || c.DropoutRate >= 1:
		return fmt.Errorf("sim: DropoutRate = %v, need [0, 1)", c.DropoutRate)
	case c.CrashRate < 0 || c.CrashRate >= 1:
		return fmt.Errorf("sim: CrashRate = %v, need [0, 1)", c.CrashRate)
	}
	switch c.LatencyModel {
	case LatencyZipf, LatencyUniform, LatencyLogNormal, "":
	default:
		return fmt.Errorf("sim: unknown LatencyModel %q", c.LatencyModel)
	}
	if (c.LatencyModel == LatencyZipf || c.LatencyModel == "") && c.ZipfS <= 0 {
		return fmt.Errorf("sim: ZipfS = %v, need > 0 for Zipf latency", c.ZipfS)
	}
	return nil
}

// RoundPoint is one accuracy evaluation along the simulation.
type RoundPoint struct {
	// Round is the aggregation round index (1-based; round 0 is the
	// initial model).
	Round int
	// Time is the simulated wall-clock time of the aggregation.
	Time float64
	// Accuracy is the global model's test accuracy.
	Accuracy float64
	// Loss is the global model's mean test loss.
	Loss float64
}

// Result summarizes a finished simulation.
type Result struct {
	// FinalAccuracy is the test accuracy of the final global model.
	FinalAccuracy float64
	// FinalLoss is the mean test loss of the final global model.
	FinalLoss float64
	// History holds intermediate evaluations (per Config.EvalEvery).
	History []RoundPoint
	// Detection aggregates the filter's decisions against ground truth
	// over all rounds ("flagged" = rejected).
	Detection stats.Confusion
	// Accepted, Deferred, Rejected count filter decisions over all rounds.
	Accepted, Deferred, Rejected int
	// DroppedStale counts updates discarded for exceeding the staleness
	// limit (before filtering).
	DroppedStale int
	// LostUpdates counts updates lost to injected transit failures.
	LostUpdates int
	// Crashes counts injected client crashes.
	Crashes int
	// MeanStaleness is the average staleness of updates reaching the
	// filter.
	MeanStaleness float64
	// Rounds is the number of aggregations performed.
	Rounds int
	// SimTime is the final simulated time.
	SimTime float64
	// FilterName and AttackName identify the configuration.
	FilterName string
	AttackName string
}

// event is a client completing local training.
type event struct {
	time     float64
	seq      int // tie-breaker for determinism
	clientID int
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !vecmath.ExactEqual(q[i].time, q[j].time) {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// client is one simulated device.
type client struct {
	id          int
	data        *dataset.Dataset
	latency     float64
	malicious   bool
	baseVersion int // global model version it is currently training from
	rng         *rand.Rand
}

// Simulation is a fully-constructed AFL run. Build with New, execute with
// Run.
type Simulation struct {
	cfg    Config
	engine *fl.Engine
	atk    attack.Attack

	clients   []*client
	train     *dataset.Dataset
	test      *dataset.Dataset
	rootShard *dataset.Dataset

	global    []float64
	proto     model.Model
	version   int
	snapshots map[int][]float64

	rng    *rand.Rand
	jitter *rand.Rand
}

// New builds a simulation. filter may be nil (pass-through / FedBuff);
// combiner may be nil (weighted mean).
func New(cfg Config, filter fl.Filter, combiner fl.Combiner) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	atk, err := attack.New(cfg.Attack)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.LatencyModel == "" {
		cfg.LatencyModel = LatencyZipf
	}

	rng := randx.New(cfg.Seed)

	// Data: generate, carve the optional clean server shard, partition.
	dataCfg := cfg.Data
	if dataCfg.Seed == 0 {
		dataCfg.Seed = cfg.Seed
	}
	train, test, err := dataset.GenerateSynthetic(dataCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Simulation{
		cfg:       cfg,
		engine:    fl.NewEngine(filter, combiner, cfg.Aggregator),
		atk:       atk,
		train:     train,
		test:      test,
		snapshots: make(map[int][]float64),
		rng:       rng,
		jitter:    randx.Split(rng),
	}

	clientData := train
	if cfg.OracleShardFraction > 0 {
		shardSize := int(float64(train.Len()) * cfg.OracleShardFraction)
		if shardSize < 1 {
			shardSize = 1
		}
		perm := rng.Perm(train.Len())
		s.rootShard = train.Subset(perm[:shardSize])
		clientData = train.Subset(perm[shardSize:])
	}

	partSize := cfg.PartitionSize
	if partSize == 0 {
		partSize = clientData.Len() / cfg.NumClients
		if partSize < 1 {
			partSize = 1
		}
	}
	var parts []*dataset.Dataset
	if cfg.PartitionAlpha > 0 {
		parts, err = dataset.PartitionDirichletFixedSize(clientData, cfg.NumClients, partSize, cfg.PartitionAlpha, randx.Split(rng))
	} else {
		parts, err = dataset.PartitionIIDFixedSize(clientData, cfg.NumClients, partSize, randx.Split(rng))
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	// Model.
	modelCfg := cfg.Model
	if modelCfg.Seed == 0 {
		modelCfg.Seed = cfg.Seed
	}
	s.proto, err = model.New(modelCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.global = make([]float64, s.proto.NumParams())
	s.proto.Params(s.global)
	s.snapshots[0] = append([]float64(nil), s.global...)

	// Clients: latency per device, malicious subset chosen uniformly.
	latencies, err := s.sampleLatencies(randx.Split(rng))
	if err != nil {
		return nil, err
	}
	maliciousSet := make(map[int]bool, cfg.NumMalicious)
	for _, idx := range randx.SampleWithoutReplacement(rng, cfg.NumClients, cfg.NumMalicious) {
		maliciousSet[idx] = true
	}
	s.clients = make([]*client, cfg.NumClients)
	for i := range s.clients {
		s.clients[i] = &client{
			id:        i,
			data:      parts[i],
			latency:   latencies[i],
			malicious: maliciousSet[i],
			rng:       randx.Split(rng),
		}
	}
	return s, nil
}

// sampleLatencies draws one base latency per client from the configured
// speed distribution.
func (s *Simulation) sampleLatencies(r *rand.Rand) ([]float64, error) {
	out := make([]float64, s.cfg.NumClients)
	switch s.cfg.LatencyModel {
	case LatencyZipf:
		z, err := randx.NewZipf(s.cfg.ZipfS, s.cfg.NumClients)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		for i := range out {
			// The sampled rank is the device's slowdown factor: rank 1
			// (most probable) is the fastest device; stragglers draw large
			// ranks.
			out[i] = float64(z.Sample(r))
		}
	case LatencyUniform:
		for i := range out {
			out[i] = 1 + 9*r.Float64()
		}
	case LatencyLogNormal:
		for i := range out {
			out[i] = 1 + lognormal(r, 0, 0.75)
		}
	}
	return out, nil
}

func lognormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
