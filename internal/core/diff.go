package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Diff expresses the change between two snapshots of the same filter as a
// mergeable delta: a filter holding prev that Merges the returned state
// reproduces cur. It is the inverse of Merge for the paper's cumulative
// moving average estimator, where it is exact in the count-weighted
// sense — each changed group becomes a synthetic group whose count is the
// new observations and whose mean is their average, recovered from
//
//	meanΔ = (curMean·curCount − prevMean·prevCount) / (curCount − prevCount)
//
// so Merge's count-weighted union of prev and the delta lands on cur.
// The replicated root (internal/replica) ships these deltas as per-batch
// replication log records instead of full snapshots.
//
// Diff returns an error when no exact delta exists — a group's count
// decreased, an amnesty credit was spent, or the round counter moved
// backwards — and the caller falls back to shipping cur in full. EWMA
// estimator states never have an exact delta (EWMA weighting depends on
// arrival order, and Merge blends rather than unions); AsyncFilter's
// DiffState refuses them up front.
func Diff(prev, cur FilterState) (FilterState, error) {
	if prev.Dim != 0 && cur.Dim != 0 && prev.Dim != cur.Dim {
		return FilterState{}, fmt.Errorf("core: Diff: dim changed %d -> %d", prev.Dim, cur.Dim)
	}
	if cur.Rounds < prev.Rounds {
		return FilterState{}, fmt.Errorf("core: Diff: rounds moved backwards %d -> %d", prev.Rounds, cur.Rounds)
	}

	prevGroups := make(map[int]GroupState, len(prev.Groups))
	for _, g := range prev.Groups {
		prevGroups[g.Staleness] = g
	}
	delta := FilterState{Dim: cur.Dim, Rounds: cur.Rounds}
	for _, g := range cur.Groups {
		pg, ok := prevGroups[g.Staleness]
		if !ok || pg.Count == 0 {
			// A group prev never observed: Merge restores it fresh, so the
			// delta carries it verbatim.
			delta.Groups = append(delta.Groups, GroupState{
				Staleness: g.Staleness,
				Mean:      vecmath.Clone(g.Mean),
				Count:     g.Count,
			})
			continue
		}
		if g.Count < pg.Count {
			return FilterState{}, fmt.Errorf("core: Diff: group %d count decreased %d -> %d",
				g.Staleness, pg.Count, g.Count)
		}
		if g.Count == pg.Count {
			// No new observations; a CMA mean cannot have moved.
			continue
		}
		dc := g.Count - pg.Count
		mean := make([]float64, len(g.Mean))
		for i := range mean {
			mean[i] = (g.Mean[i]*float64(g.Count) - pg.Mean[i]*float64(pg.Count)) / float64(dc)
		}
		delta.Groups = append(delta.Groups, GroupState{Staleness: g.Staleness, Mean: mean, Count: dc})
	}

	// Amnesty merges by per-client maximum, so the delta can only raise
	// credits: carry every credit that grew, and bail out when one shrank
	// or disappeared (it was spent — only a full snapshot can lower it).
	prevAmnesty := make(map[int]int, len(prev.Amnesty))
	for _, a := range prev.Amnesty {
		prevAmnesty[a.ClientID] = a.Credits
	}
	curAmnesty := make(map[int]bool, len(cur.Amnesty))
	for _, a := range cur.Amnesty {
		curAmnesty[a.ClientID] = true
		if a.Credits < prevAmnesty[a.ClientID] {
			return FilterState{}, fmt.Errorf("core: Diff: client %d amnesty spent %d -> %d",
				a.ClientID, prevAmnesty[a.ClientID], a.Credits)
		}
		if a.Credits > prevAmnesty[a.ClientID] {
			delta.Amnesty = append(delta.Amnesty, a)
		}
	}
	for _, a := range prev.Amnesty {
		if a.Credits > 0 && !curAmnesty[a.ClientID] {
			return FilterState{}, fmt.Errorf("core: Diff: client %d amnesty entry dropped", a.ClientID)
		}
	}
	return delta, nil
}

var _ fl.StateDiffer = (*AsyncFilter)(nil)

// DiffSince implements fl.StateDiffer. The base it hands back is the
// FilterState it snapshotted, held in memory: the next call diffs
// against it directly, so a record encodes only what it ships and
// nothing is decoded. A non-FilterState base (nil on a stream's first
// record) and the EWMA estimator, which has no exact delta, yield the
// full state.
//
// Each diffed record reseeds the RNG twice, and a full fallback carries
// the second seed. That is the stream a replicated root has always
// consumed, and k-means draws from it: one reseed fewer would move every
// later verdict of the root, and the verdict hashes pinned for it.
func (f *AsyncFilter) DiffSince(base any) ([]byte, bool, any, error) {
	prev, ok := base.(FilterState)
	if !ok || f.cfg.Estimator == EstimatorEWMA {
		cur := f.Snapshot()
		data, err := encodeState(cur)
		return data, true, cur, err
	}
	delta, cur, err := f.diffEncode(prev)
	cur.RNGSeed = f.reseed()
	if err == nil {
		return delta, false, cur, nil
	}
	data, err := encodeState(cur)
	return data, true, cur, err
}

// DiffState returns the gob-encoded Diff between a previous SnapshotState
// payload and the filter's current state. The caller must hold the
// filter quiescent (DiffState snapshots, which reseeds the RNG exactly as
// Snapshot does).
func (f *AsyncFilter) DiffState(prev []byte) ([]byte, error) {
	if f.cfg.Estimator == EstimatorEWMA {
		return nil, fmt.Errorf("core: DiffState: no exact delta for the %s estimator", EstimatorEWMA)
	}
	var prevState FilterState
	if err := gob.NewDecoder(bytes.NewReader(prev)).Decode(&prevState); err != nil {
		return nil, fmt.Errorf("core: DiffState: decode prev: %w", err)
	}
	delta, _, err := f.diffEncode(prevState)
	return delta, err
}

// diffEncode snapshots the filter and returns the gob-encoded Diff from
// prev to that snapshot, and the snapshot itself.
func (f *AsyncFilter) diffEncode(prev FilterState) ([]byte, FilterState, error) {
	cur := f.Snapshot()
	delta, err := Diff(prev, cur)
	if err != nil {
		return nil, cur, err
	}
	data, err := encodeState(delta)
	return data, cur, err
}
