package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/stats"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// FilterState is the serializable snapshot of an AsyncFilter's detection
// state: the per-staleness-group moving averages and observation counts
// (the paper's Eq. 5 state, which the filter's detection quality depends
// on), the per-client rejection-cooldown credits, the learned update
// dimensionality, the round counter and the RNG seed. Groups and amnesty
// credits are stored as sorted slices rather than maps so that equal
// states always serialize to identical bytes.
type FilterState struct {
	Dim     int
	Rounds  int
	RNGSeed int64
	Groups  []GroupState
	Amnesty []AmnestyCredit
}

// GroupState is one staleness group's estimator state.
type GroupState struct {
	// Staleness is the group key (the staleness level it collects).
	Staleness int
	// Mean is the group estimate (cumulative moving average or EWMA).
	Mean []float64
	// Count is the number of observations folded into the estimate.
	Count int
}

// AmnestyCredit is one client's outstanding rejection-cooldown exemptions.
type AmnestyCredit struct {
	ClientID int
	Credits  int
}

// Snapshot captures the filter's full detection state for checkpointing.
//
// To keep the random stream aligned between a filter that keeps running
// and one restored from the snapshot, Snapshot draws a fresh seed from
// the filter's own RNG, reseeds the live filter with it, and records the
// same seed in the snapshot: from this point on the live filter and any
// restored copy consume identical random streams, so Snapshot-then-
// Snapshot on the original and Restore-then-Snapshot on a copy produce
// byte-identical states.
func (f *AsyncFilter) Snapshot() FilterState {
	st := FilterState{
		Dim:     f.dim,
		Rounds:  f.rounds,
		RNGSeed: f.reseed(),
		Groups:  make([]GroupState, 0, len(f.groups)),
		Amnesty: make([]AmnestyCredit, 0, len(f.amnesty)),
	}
	for k, est := range f.groups {
		st.Groups = append(st.Groups, GroupState{
			Staleness: k,
			Mean:      vecmath.Clone(est.Mean()),
			Count:     est.Count(),
		})
	}
	sort.Slice(st.Groups, func(i, j int) bool { return st.Groups[i].Staleness < st.Groups[j].Staleness })
	for id, credits := range f.amnesty {
		st.Amnesty = append(st.Amnesty, AmnestyCredit{ClientID: id, Credits: credits})
	}
	sort.Slice(st.Amnesty, func(i, j int) bool { return st.Amnesty[i].ClientID < st.Amnesty[j].ClientID })
	return st
}

// reseed draws a fresh seed from the filter's RNG, restarts the RNG from
// it and returns it.
func (f *AsyncFilter) reseed() int64 {
	seed := f.rng.Int63()
	f.rng = randx.New(seed)
	return seed
}

// Restore replaces the filter's detection state with a snapshot taken
// from a filter running the same configuration. It is all-or-nothing: on
// error the filter keeps its prior state untouched.
func (f *AsyncFilter) Restore(st FilterState) error {
	if st.Dim < 0 {
		return fmt.Errorf("core: Restore: Dim = %d, need >= 0", st.Dim)
	}
	if st.Rounds < 0 {
		return fmt.Errorf("core: Restore: Rounds = %d, need >= 0", st.Rounds)
	}
	groups := make(map[int]estimator, len(st.Groups))
	for _, g := range st.Groups {
		if len(g.Mean) != st.Dim {
			return fmt.Errorf("core: Restore: group %d mean has dim %d, snapshot dim is %d",
				g.Staleness, len(g.Mean), st.Dim)
		}
		if g.Count < 0 {
			return fmt.Errorf("core: Restore: group %d count = %d, need >= 0", g.Staleness, g.Count)
		}
		if _, dup := groups[g.Staleness]; dup {
			return fmt.Errorf("core: Restore: duplicate group %d", g.Staleness)
		}
		est, err := f.restoreEstimator(g)
		if err != nil {
			return err
		}
		groups[g.Staleness] = est
	}
	amnesty := make(map[int]int, len(st.Amnesty))
	for _, a := range st.Amnesty {
		if a.Credits < 0 {
			return fmt.Errorf("core: Restore: client %d has %d amnesty credits, need >= 0", a.ClientID, a.Credits)
		}
		if _, dup := amnesty[a.ClientID]; dup {
			return fmt.Errorf("core: Restore: duplicate amnesty entry for client %d", a.ClientID)
		}
		amnesty[a.ClientID] = a.Credits
	}

	f.dim = st.Dim
	f.rounds = st.Rounds
	f.rng = randx.New(st.RNGSeed)
	f.groups = groups
	f.amnesty = amnesty
	f.lastScores = nil
	return nil
}

// restoreEstimator rebuilds one group estimator of the configured kind
// from its snapshotted mean and count.
func (f *AsyncFilter) restoreEstimator(g GroupState) (estimator, error) {
	switch f.cfg.Estimator {
	case EstimatorEWMA:
		e, err := stats.RestoreEWMA(g.Mean, f.cfg.EWMAAlpha, g.Count > 0)
		if err != nil {
			return nil, fmt.Errorf("core: Restore: group %d: %w", g.Staleness, err)
		}
		return &ewmaEstimator{e: e, count: g.Count}, nil
	default:
		ma, err := stats.RestoreVectorMA(g.Mean, g.Count)
		if err != nil {
			return nil, fmt.Errorf("core: Restore: group %d: %w", g.Staleness, err)
		}
		return ma, nil
	}
}

var (
	_ fl.StateSnapshotter = (*AsyncFilter)(nil)
	_ fl.StateMerger      = (*AsyncFilter)(nil)
)

// SnapshotState implements fl.StateSnapshotter by gob-encoding Snapshot.
func (f *AsyncFilter) SnapshotState() ([]byte, error) {
	return encodeState(f.Snapshot())
}

// encodeState gob-encodes a full state or a Diff delta: the payload
// SnapshotState, DiffState and DiffSince return.
func encodeState(st FilterState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("core: encode filter state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements fl.StateSnapshotter.
func (f *AsyncFilter) RestoreState(data []byte) error {
	var st FilterState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("core: RestoreState: %w", err)
	}
	return f.Restore(st)
}
