// Package fl defines the core federated-learning types shared by the
// simulator, the transport layer, the attacks and the defenses: client
// model updates, staleness bookkeeping, local training, and aggregation
// rules (weighted FedAvg with FedBuff-style staleness discounting).
package fl

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Update is one client's contribution to a server aggregation round.
type Update struct {
	// ClientID identifies the reporting client.
	ClientID int
	// BaseVersion is the global model version the client trained from.
	BaseVersion int
	// Staleness is the number of server rounds that elapsed between the
	// client receiving its base model and the server consuming the update:
	// currentRound - BaseVersion.
	Staleness int
	// Delta is the flat parameter delta: local model minus base model.
	Delta []float64
	// NumSamples is the client's local dataset size (aggregation weight).
	NumSamples int
}

// CloneUpdate returns a deep copy of u.
func CloneUpdate(u *Update) *Update {
	c := *u
	c.Delta = vecmath.Clone(u.Delta)
	return &c
}

// TrainerConfig controls a client's local optimization, mirroring the
// paper's Table 1 (local epochs, batch size, optimizer, learning rate,
// momentum).
type TrainerConfig struct {
	// Epochs is the number of passes over the local partition.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// Optim configures the local optimizer.
	Optim optim.Config
	// ClipNorm, when positive, clips the per-batch gradient norm.
	ClipNorm float64
	// LRDecayPerEpoch multiplies the learning rate by this factor after
	// each local epoch (0 or 1 disables decay).
	LRDecayPerEpoch float64
}

// Validate checks the trainer configuration.
func (c *TrainerConfig) Validate() error {
	if c.Epochs < 1 {
		return fmt.Errorf("fl: TrainerConfig: Epochs = %d, need >= 1", c.Epochs)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("fl: TrainerConfig: BatchSize = %d, need >= 1", c.BatchSize)
	}
	if c.LRDecayPerEpoch < 0 || c.LRDecayPerEpoch > 1 {
		return fmt.Errorf("fl: TrainerConfig: LRDecayPerEpoch = %v, need [0, 1]", c.LRDecayPerEpoch)
	}
	return nil
}

// LocalTrain runs cfg.Epochs of minibatch training of m on data and returns
// the resulting parameter delta (trained params minus starting params).
// m is left holding the trained parameters; callers that need the starting
// point should keep their own copy.
func LocalTrain(m model.Model, data *dataset.Dataset, cfg TrainerConfig, r *rand.Rand) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if data.Len() == 0 {
		return nil, fmt.Errorf("fl: LocalTrain: empty dataset")
	}
	optCfg := cfg.Optim
	opt, err := optim.New(optCfg, m.NumParams())
	if err != nil {
		return nil, fmt.Errorf("fl: LocalTrain: %w", err)
	}

	start := make([]float64, m.NumParams())
	m.Params(start)

	params := make([]float64, m.NumParams())
	grad := make([]float64, m.NumParams())
	order := make([]int, data.Len())
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch > 0 && cfg.LRDecayPerEpoch > 0 && cfg.LRDecayPerEpoch < 1 {
			// Step-decay schedule: rebuild the optimizer with the decayed
			// rate, preserving the decay across epochs. Momentum state
			// restarts with the new rate, matching the common step-decay
			// implementation.
			optCfg.LR *= cfg.LRDecayPerEpoch
			opt, err = optim.New(optCfg, m.NumParams())
			if err != nil {
				return nil, fmt.Errorf("fl: LocalTrain: %w", err)
			}
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			vecmath.Fill(grad, 0)
			for _, idx := range order[lo:hi] {
				ex := data.Examples[idx]
				m.Gradient(grad, ex.Features, ex.Label)
			}
			vecmath.Scale(grad, 1/float64(hi-lo), grad)
			if cfg.ClipNorm > 0 {
				vecmath.ClipNorm(grad, cfg.ClipNorm)
			}
			m.Params(params)
			opt.Step(params, grad)
			m.SetParams(params)
		}
	}

	m.Params(params)
	delta := vecmath.Subbed(params, start)
	if !vecmath.AllFinite(delta) {
		return nil, fmt.Errorf("fl: LocalTrain: training diverged to non-finite parameters")
	}
	return delta, nil
}

// StalenessWeight returns the FedBuff polynomial staleness discount
// (1 + tau)^(-exponent). Exponent 0 disables discounting.
func StalenessWeight(staleness int, exponent float64) float64 {
	if staleness < 0 {
		staleness = 0
	}
	if vecmath.IsZero(exponent) {
		return 1
	}
	return math.Pow(1+float64(staleness), -exponent)
}

// AggregatorConfig controls update aggregation.
type AggregatorConfig struct {
	// StalenessExponent is the polynomial staleness-discount exponent a in
	// (1+tau)^-a. Zero disables staleness discounting.
	StalenessExponent float64
	// SampleWeighted weights updates by NumSamples when true; otherwise
	// uniformly.
	SampleWeighted bool
	// ServerLR scales the aggregated delta before it is applied to the
	// global model. Zero selects 1.
	ServerLR float64
}

// Aggregate applies the weighted mean of the updates' deltas to the global
// parameter vector in place, returning the per-update normalized weights
// actually used. An empty update set is a no-op returning nil. global
// must not alias any update's delta.
func Aggregate(global []float64, updates []*Update, cfg AggregatorConfig) ([]float64, error) {
	if len(updates) == 0 {
		return nil, nil
	}
	weights := make([]float64, len(updates))
	var total float64
	for i, u := range updates {
		if len(u.Delta) != len(global) {
			return nil, fmt.Errorf("fl: Aggregate: update %d has dimension %d, global has %d", i, len(u.Delta), len(global))
		}
		w := StalenessWeight(u.Staleness, cfg.StalenessExponent)
		if cfg.SampleWeighted {
			w *= float64(u.NumSamples)
		}
		weights[i] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("fl: Aggregate: aggregation weights sum to %v", total)
	}
	lr := cfg.ServerLR
	if vecmath.IsZero(lr) {
		lr = 1
	}
	for i := range weights {
		weights[i] /= total
	}
	// Four updates per pass over global: each coordinate still receives
	// its terms one at a time in update order, so the bits are AXPY's.
	var alphas [4]float64
	var xs [4][]float64
	m := 0
	for i, u := range updates {
		alphas[m], xs[m] = lr*weights[i], u.Delta
		m++
		if m == len(xs) || i == len(updates)-1 {
			vecmath.AXPYs(global, alphas[:m], xs[:m])
			m = 0
		}
	}
	return weights, nil
}

// Filter inspects a batch of buffered updates before aggregation and
// decides the fate of each. It is the extension point AsyncFilter plugs
// into; FedBuff corresponds to a pass-through filter.
//
// Implementations must treat updates as read-only and must not retain the
// slice past the call. Decisions are returned positionally: len(Decisions)
// == len(updates).
//
// On the serving path every delta a filter sees is finite and has the
// model's dimension: the client server's admission (transport) and the
// root's batch apply (topology) drop any other as malformed.
type Filter interface {
	// Filter classifies each update for the given server round.
	Filter(updates []*Update, round int) (FilterResult, error)
	// Name identifies the filter in experiment reports.
	Name() string
}

// RoundObserver is implemented by filters that need post-aggregation
// feedback. After applying an aggregation, the server calls ObserveRound
// with the new global parameters and the updates that were accepted.
type RoundObserver interface {
	ObserveRound(round int, global []float64, accepted []*Update)
}

// StateSnapshotter is implemented by filters whose detection state must
// survive server restarts (AsyncFilter's per-group moving averages, for
// example — losing them would force the filter to re-learn every group
// estimate from zero after a crash). The transport server embeds the
// snapshot in its checkpoint and restores it before serving.
//
// SnapshotState returns an opaque serialization of the filter's internal
// state. RestoreState must be all-or-nothing: on error the filter keeps
// its prior state untouched.
type StateSnapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// StateMerger is implemented by filters whose detection state can absorb
// another instance's snapshot instead of replacing its own — the
// hierarchical deployments need it twice: a root folds per-edge snapshots
// into its global view, and an edge that inherits a crashed peer's clients
// folds the handed-off state into its running filter so the re-homed
// clients keep their learned group estimates. MergeState must be
// all-or-nothing: on error the filter keeps its prior state untouched.
// data is the same opaque payload a StateSnapshotter produces.
type StateMerger interface {
	MergeState(data []byte) error
}

// StateDiffer is implemented by filters that can express the change
// since an earlier state of their own as a mergeable delta: a filter
// holding that earlier state which MergeStates the delta reproduces the
// current one. The replicated root uses it to ship one small incremental
// per committed batch instead of a full snapshot.
//
// DiffSince returns the filter-state payload of the next replication
// record and next, the base the following call diffs against. A base is
// an opaque in-memory value that only the filter which returned it
// reads; the caller keeps the latest one and passes nil when it has none
// (the first record of a stream, or after an error). When there is no
// base or no exact delta against it, the payload is the full state, as a
// StateSnapshotter produces it for RestoreState, and full is true;
// otherwise it is a delta for MergeState. The caller must hold the
// filter quiescent.
type StateDiffer interface {
	DiffSince(base any) (state []byte, full bool, next any, err error)
}

// Decision is a filter's verdict for one update.
type Decision int

// Decision values. Accept feeds the update to the aggregator now, Defer
// re-queues it for a later round (its staleness keeps growing), Reject
// drops it permanently.
const (
	Accept Decision = iota + 1
	Defer
	Reject
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Defer:
		return "defer"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// FilterResult carries per-update decisions plus optional diagnostic
// scores (higher = more suspicious) for logging and analysis.
type FilterResult struct {
	// Decisions holds one verdict per input update, positionally.
	Decisions []Decision
	// Scores optionally holds the filter's per-update suspicion scores.
	Scores []float64
}

// Split partitions updates by decision, preserving order.
func (r FilterResult) Split(updates []*Update) (accepted, deferred, rejected []*Update) {
	for i, u := range updates {
		switch r.Decisions[i] {
		case Accept:
			accepted = append(accepted, u)
		case Defer:
			deferred = append(deferred, u)
		case Reject:
			rejected = append(rejected, u)
		}
	}
	return accepted, deferred, rejected
}

// AcceptAll builds a FilterResult accepting n updates.
func AcceptAll(n int) FilterResult {
	d := make([]Decision, n)
	for i := range d {
		d[i] = Accept
	}
	return FilterResult{Decisions: d}
}

// AcceptAllScored is AcceptAll with a zeroed Scores slice beside the
// verdicts, for a filter that scores every update. Decisions and Scores
// are what a round hands to its caller, so they are allocated here, per
// call, however much else the filter reuses between rounds.
func AcceptAllScored(n int) FilterResult {
	res := AcceptAll(n)
	res.Scores = make([]float64, n)
	return res
}

// Passthrough is the no-defense filter; a server running Passthrough is
// exactly FedBuff.
type Passthrough struct{}

var _ Filter = Passthrough{}

// Filter implements Filter by accepting everything.
func (Passthrough) Filter(updates []*Update, round int) (FilterResult, error) {
	return AcceptAll(len(updates)), nil
}

// Name implements Filter.
func (Passthrough) Name() string { return "fedbuff" }
