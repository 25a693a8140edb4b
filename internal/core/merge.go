package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/asyncfl/asyncfilter/internal/stats"
)

// Merge folds another filter's snapshotted detection state into this one,
// group by staleness group. For the paper's cumulative moving average
// estimator the merge is exact: a group mean is a count-weighted average
// of its observations, so merging per-edge estimators reproduces the
// estimate a single filter would have computed over the union of their
// observations (stats.VectorMA.Merge). For the EWMA ablation estimator
// the merge is a count-weighted blend of the two means — an approximation,
// since EWMA weighting depends on arrival order, which is lost.
//
// Amnesty credits merge by taking the maximum per client (the credit is a
// starvation guard for honest outliers; the union of two servers' views
// should not be stricter than either). The round counter takes the
// maximum; the local RNG stream is kept.
//
// Merge is all-or-nothing: on error the filter keeps its prior state
// untouched.
func (f *AsyncFilter) Merge(st FilterState) error {
	if st.Dim < 0 {
		return fmt.Errorf("core: Merge: Dim = %d, need >= 0", st.Dim)
	}
	if f.dim != 0 && st.Dim != 0 && st.Dim != f.dim {
		return fmt.Errorf("core: Merge: snapshot dim %d, filter dim %d", st.Dim, f.dim)
	}
	seen := make(map[int]bool, len(st.Groups))
	for _, g := range st.Groups {
		if len(g.Mean) != st.Dim {
			return fmt.Errorf("core: Merge: group %d mean has dim %d, snapshot dim is %d",
				g.Staleness, len(g.Mean), st.Dim)
		}
		if g.Count < 0 {
			return fmt.Errorf("core: Merge: group %d count = %d, need >= 0", g.Staleness, g.Count)
		}
		if seen[g.Staleness] {
			return fmt.Errorf("core: Merge: duplicate group %d", g.Staleness)
		}
		seen[g.Staleness] = true
	}
	for _, a := range st.Amnesty {
		if a.Credits < 0 {
			return fmt.Errorf("core: Merge: client %d has %d amnesty credits, need >= 0", a.ClientID, a.Credits)
		}
	}

	// Prepare every merged estimator before committing any, so a failure
	// leaves the filter untouched. A group the filter has never seen (or
	// whose live estimator holds no observations yet) is restored fresh
	// from the snapshot; an existing one is merged count-weighted.
	merged := make(map[int]estimator, len(st.Groups))
	for _, g := range st.Groups {
		live, ok := f.groups[g.Staleness]
		if !ok || live.Count() == 0 {
			est, err := f.restoreEstimator(g)
			if err != nil {
				return fmt.Errorf("core: Merge: %w", err)
			}
			merged[g.Staleness] = est
			continue
		}
		if g.Count == 0 {
			merged[g.Staleness] = live
			continue
		}
		merged[g.Staleness] = mergedEstimator(live, g)
	}

	if f.dim == 0 {
		f.dim = st.Dim
	}
	for k, est := range merged {
		f.groups[k] = est
	}
	for _, a := range st.Amnesty {
		if a.Credits > f.amnesty[a.ClientID] {
			f.amnesty[a.ClientID] = a.Credits
		}
	}
	if st.Rounds > f.rounds {
		f.rounds = st.Rounds
	}
	return nil
}

// mergedEstimator combines a live estimator (count > 0) with a snapshotted
// group (count > 0) of the same staleness level, returning the estimator
// to install. The live estimator is mutated in place for the CMA case
// (Merge's all-or-nothing contract still holds: by this point every
// snapshot field has been validated and no merge path can fail).
func mergedEstimator(live estimator, g GroupState) estimator {
	switch e := live.(type) {
	case *stats.VectorMA:
		// Validated above: RestoreVectorMA only fails on a negative count.
		other, err := stats.RestoreVectorMA(g.Mean, g.Count)
		if err != nil {
			panic(err)
		}
		e.Merge(other)
		return e
	case *ewmaEstimator:
		// Count-weighted blend; exactness is impossible for EWMA because
		// its weighting depends on the lost arrival order.
		mean := e.e.Mean()
		total := float64(e.count + g.Count)
		we := float64(e.count) / total
		wg := float64(g.Count) / total
		for i := range mean {
			mean[i] = mean[i]*we + g.Mean[i]*wg
		}
		e.count += g.Count
		return e
	default:
		return live
	}
}

// MergeState implements fl.StateMerger by decoding a SnapshotState payload
// and merging it.
func (f *AsyncFilter) MergeState(data []byte) error {
	var st FilterState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("core: MergeState: %w", err)
	}
	return f.Merge(st)
}
