package fl

import "fmt"

// Combiner turns a batch of accepted updates into a single delta to apply
// to the global model. The default combiner is the weighted mean used by
// Aggregate; Byzantine-robust aggregation rules (trimmed mean, median,
// Krum) provide alternatives.
type Combiner interface {
	// Combine returns the round's delta. The server scales it by
	// cfg.ServerLR when it applies it (Engine.Commit), so no combiner
	// applies the server learning rate itself.
	Combine(updates []*Update, cfg AggregatorConfig) ([]float64, error)
	// Name identifies the combiner.
	Name() string
}

// MeanCombiner is the FedAvg/FedBuff weighted-mean combiner, equivalent to
// Aggregate with a zero starting point and a server learning rate of 1.
type MeanCombiner struct{}

var _ Combiner = MeanCombiner{}

// Combine implements Combiner.
func (MeanCombiner) Combine(updates []*Update, cfg AggregatorConfig) ([]float64, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fl: MeanCombiner: no updates")
	}
	delta := make([]float64, len(updates[0].Delta))
	cfg.ServerLR = 1
	if _, err := Aggregate(delta, updates, cfg); err != nil {
		return nil, err
	}
	return delta, nil
}

// Name implements Combiner.
func (MeanCombiner) Name() string { return "mean" }
