// Package core implements AsyncFilter, the paper's primary contribution: a
// server-side plug-and-play module that detects and filters poisoned model
// updates in asynchronous federated learning without requiring the server
// to hold any dataset.
//
// The filter runs in three steps per aggregation round (paper Section 4.3):
//
//  1. Staleness-based grouping: updates are grouped by staleness, because
//     updates trained from different global-model versions differ more than
//     poisoned vs. genuine updates do.
//  2. Moving-average estimation + suspicious scores: each staleness group
//     maintains a cumulative moving average of the updates it has seen
//     (Eq. 5); each update's L2 distance to its group estimate (Eq. 6) is
//     normalized into a suspicious score (Eq. 7).
//  3. Attacker identification: 1-D 3-means clustering over the scores. The
//     highest-score cluster is rejected, the lowest accepted, and the
//     middle — weak attackers mixed with honest non-IID clients — is
//     tolerated (deferred to a later aggregation by default).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/asyncfl/asyncfilter/internal/cluster"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/stats"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Group estimator kinds.
const (
	// EstimatorMA is the paper's cumulative moving average (Eq. 5).
	EstimatorMA = "ma"
	// EstimatorBatch uses only the current batch's per-group mean, an
	// ablation showing the value of cross-round smoothing.
	EstimatorBatch = "batch"
	// EstimatorEWMA is an exponentially weighted moving average ablation.
	EstimatorEWMA = "ewma"
)

// Score normalization kinds.
const (
	// NormalizeGroupRMS divides each update's distance by the median
	// distance of its own staleness group, centering every group's benign
	// scores near 1 regardless of how far the group as a whole sits from
	// its estimate. This neutralizes the systematic per-group score
	// offsets that staleness introduces (the paper's stated purpose for
	// grouping); the median (rather than a mean-square) scale stays
	// uncontaminated as long as attackers are a minority of the group.
	// This is the default.
	NormalizeGroupRMS = "group-rms"
	// NormalizeBatch divides each distance by the root of the sum of
	// squared distances across the whole arrival batch, yielding scores in
	// [0, 1] that are directly comparable for clustering.
	NormalizeBatch = "batch"
	// NormalizeGroups is the literal reading of the paper's Eq. 7: each
	// client's distance to its own group estimate is divided by the root
	// of the summed squared distances from that client to every group
	// estimate. Falls back to batch normalization when fewer than two
	// staleness groups exist.
	NormalizeGroups = "groups"
)

// Config parameterizes AsyncFilter. The zero value is NOT valid; use
// DefaultConfig as a starting point.
type Config struct {
	// K is the number of score clusters; the paper uses 3 and evaluates 2
	// as an ablation (Figure 7). Must be >= 2.
	K int
	// MiddlePolicy decides the fate of the intermediate clusters (those
	// that are neither the lowest- nor the highest-score cluster):
	// fl.Accept, fl.Defer (paper default: contribute at a later stage) or
	// fl.Reject.
	MiddlePolicy fl.Decision
	// GroupByStaleness enables step 1; disabling it (single global group)
	// is an ablation. Default true.
	GroupByStaleness bool
	// Estimator selects the per-group estimator: EstimatorMA (paper),
	// EstimatorBatch or EstimatorEWMA.
	Estimator string
	// EWMAAlpha is the smoothing factor when Estimator == EstimatorEWMA.
	EWMAAlpha float64
	// Normalization selects the score normalization: NormalizeGroupRMS
	// (default), NormalizeBatch or NormalizeGroups.
	Normalization string
	// MinBatch is the smallest arrival batch the filter will cluster;
	// smaller batches are accepted wholesale (too few points to separate
	// K clusters reliably). Zero selects 2*K.
	MinBatch int
	// RejectCooldown prevents starvation of honest non-IID clients: after
	// a client's update is rejected, its next RejectCooldown arrivals are
	// exempt from rejection (accepted regardless of score). Without this,
	// a client whose legitimate data makes its updates statistical
	// outliers every round — common for rare-label holders under extreme
	// Dirichlet skew — would be excluded permanently and its classes never
	// learned, an exclusion bias the paper's 3-means tolerance is designed
	// to avoid. Sustained attackers are still damped to
	// 1/(RejectCooldown+1) of their update mass. Zero selects 1; negative
	// disables the exemption.
	RejectCooldown int
	// RejectThreshold guards against over-filtering in benign rounds: a
	// cluster is eligible for rejection/deferral only when its center
	// sits at least RejectThreshold standard deviations above the mean of
	// the scores in the clusters below it. K-means always produces K
	// clusters even when scores are pure noise, so without this guard the
	// filter would discard the top score cluster of perfectly clean
	// batches every round; a separation criterion (rather than a score
	// ratio) keeps the guard scale-free, which matters because adaptive
	// optimizers such as Adam concentrate update distances into a narrow
	// band. Zero selects 4.
	RejectThreshold float64
	// Seed drives the k-means initialization.
	Seed int64
}

// DefaultConfig returns the paper's configuration: 3-means, staleness
// grouping, cumulative moving averages, deferred middle cluster.
func DefaultConfig() Config {
	return Config{
		K:                3,
		MiddlePolicy:     fl.Defer,
		GroupByStaleness: true,
		Estimator:        EstimatorMA,
		Normalization:    NormalizeGroupRMS,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("core: Config: K = %d, need >= 2", c.K)
	}
	switch c.MiddlePolicy {
	case fl.Accept, fl.Defer, fl.Reject:
	default:
		return fmt.Errorf("core: Config: invalid MiddlePolicy %v", c.MiddlePolicy)
	}
	switch c.Estimator {
	case EstimatorMA, EstimatorBatch, EstimatorEWMA:
	default:
		return fmt.Errorf("core: Config: unknown Estimator %q", c.Estimator)
	}
	if c.Estimator == EstimatorEWMA && (c.EWMAAlpha <= 0 || c.EWMAAlpha > 1) {
		return fmt.Errorf("core: Config: EWMAAlpha = %v, need (0, 1]", c.EWMAAlpha)
	}
	switch c.Normalization {
	case NormalizeGroupRMS, NormalizeBatch, NormalizeGroups:
	default:
		return fmt.Errorf("core: Config: unknown Normalization %q", c.Normalization)
	}
	if c.MinBatch < 0 {
		return fmt.Errorf("core: Config: MinBatch = %d, need >= 0", c.MinBatch)
	}
	if c.RejectThreshold < 0 {
		return fmt.Errorf("core: Config: RejectThreshold = %v, need >= 0", c.RejectThreshold)
	}
	return nil
}

// AsyncFilter is the stateful filter module. It is not safe for concurrent
// use; the server serializes aggregation rounds.
type AsyncFilter struct {
	cfg    Config
	rng    *rand.Rand
	groups map[int]estimator // staleness level -> group estimator
	dim    int               // update dimensionality, learned on first batch

	// amnesty tracks per-client rejection-cooldown credits (see
	// Config.RejectCooldown).
	amnesty map[int]int

	// Round diagnostics, refreshed by each Filter call.
	lastScores []float64
	rounds     int

	scratch roundScratch

	// obs, when non-nil, receives one DecisionEvent per update and one
	// FilterRoundEvent per Filter call. Emission is purely observational
	// and never alters verdicts, estimator folding or RNG consumption.
	obs fl.FilterObserver
}

// roundScratch is the working set of one Filter round. The filter owns
// it and reuses it, so a steady-state round allocates only what escapes to
// the caller (FilterResult's Decisions and Scores). Per-group state is
// indexed by slot: the round's live groups in ascending staleness, which
// is also the order of every per-group loop.
type roundScratch struct {
	keys     []int         // slot -> staleness key
	ests     []estimator   // slot -> live estimator
	pooled   []float64     // the batch mean, nil until a round falls through to it
	slotOf   []int         // update -> slot
	dists    []float64     // update -> distance to its slot's reference
	gathered []float64     // one slot's distances, for its median
	denom    []float64     // update -> Eq. 7's sum of squared distances to every group
	members  []int         // the updates of the slot at hand, scored or folded together
	xs       [][]float64   // their deltas, handed to a blocked kernel and cleared after
	sum      []float64     // a group's batch mean, under EstimatorEWMA
	eligible []bool        // cluster -> passes the rejection guard
	pre      []fl.Decision // pre-amnesty verdicts, kept for an observer only
	km       cluster.Scalar
}

// grow returns buf resliced to n elements with unspecified contents,
// reallocating only when its capacity is too small.
//
//afl:pooled
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// estimator is one staleness group's estimate. AddAll folds one round's
// vectors of the group, in arrival order.
type estimator interface {
	AddAll(xs [][]float64)
	Mean() []float64
	Count() int
}

// *stats.VectorMA, the cumulative vector mean, is the estimator of both
// EstimatorMA (one per group, kept) and EstimatorBatch (rebuilt per round).
var _ estimator = (*stats.VectorMA)(nil)

// ewmaEstimator wraps stats.EWMA with an observation counter.
type ewmaEstimator struct {
	e     *stats.EWMA
	count int
}

// AddAll folds each vector as one observation. fold hands it one per
// round, the group's batch mean.
func (w *ewmaEstimator) AddAll(xs [][]float64) {
	for _, x := range xs {
		w.e.Add(x)
		w.count++
	}
}

func (w *ewmaEstimator) Mean() []float64 { return w.e.Mean() }
func (w *ewmaEstimator) Count() int      { return w.count }

// New builds an AsyncFilter from the configuration.
func New(cfg Config) (*AsyncFilter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinBatch == 0 {
		cfg.MinBatch = 2 * cfg.K
	}
	if vecmath.IsZero(cfg.RejectThreshold) {
		cfg.RejectThreshold = 4
	}
	if cfg.RejectCooldown == 0 {
		cfg.RejectCooldown = 1
	}
	return &AsyncFilter{
		cfg:     cfg,
		rng:     randx.New(cfg.Seed),
		groups:  make(map[int]estimator),
		amnesty: make(map[int]int),
	}, nil
}

var (
	_ fl.Filter           = (*AsyncFilter)(nil)
	_ fl.ObservableFilter = (*AsyncFilter)(nil)
)

// SetObserver implements fl.ObservableFilter. Call before the filter is
// handed to a server; the filter is not safe for concurrent use.
func (f *AsyncFilter) SetObserver(obs fl.FilterObserver) { f.obs = obs }

// emit publishes one decision event per update plus the round summary.
// assign == nil means the batch was never clustered (events carry cluster
// -1); pre holds the pre-amnesty verdicts so amnesty flips are visible in
// the events.
func (f *AsyncFilter) emit(round int, updates []*fl.Update, res fl.FilterResult, assign []int, pre []fl.Decision, wholesale bool) {
	if f.obs == nil {
		return
	}
	s := &f.scratch
	var acc, def, rej int
	for i, u := range updates {
		d := res.Decisions[i]
		switch d {
		case fl.Defer:
			def++
		case fl.Reject:
			rej++
		default:
			acc++
		}
		cl := -1
		if assign != nil {
			cl = assign[i]
		}
		f.obs.ObserveDecision(fl.DecisionEvent{
			Round:    round,
			ClientID: u.ClientID,
			Group:    s.keys[s.slotOf[i]],
			Cluster:  cl,
			Score:    res.Scores[i],
			Decision: d,
			Amnesty:  pre != nil && pre[i] != d,
		})
	}
	f.obs.ObserveFilterRound(fl.FilterRoundEvent{
		Round:     round,
		Batch:     len(updates),
		Accepted:  acc,
		Deferred:  def,
		Rejected:  rej,
		Groups:    len(s.keys),
		Wholesale: wholesale,
	})
}

// Name implements fl.Filter.
func (f *AsyncFilter) Name() string {
	if f.cfg.K == 3 {
		return "asyncfilter"
	}
	return fmt.Sprintf("asyncfilter-%dmeans", f.cfg.K)
}

// Config returns the filter's configuration.
func (f *AsyncFilter) Config() Config { return f.cfg }

// Rounds returns the number of Filter calls processed.
func (f *AsyncFilter) Rounds() int { return f.rounds }

// groupKey maps an update to its staleness group.
func (f *AsyncFilter) groupKey(u *fl.Update) int {
	if !f.cfg.GroupByStaleness {
		return 0
	}
	return u.Staleness
}

// newEstimator builds a fresh estimator for one staleness group.
func (f *AsyncFilter) newEstimator() estimator {
	switch f.cfg.Estimator {
	case EstimatorEWMA:
		e, err := stats.NewEWMA(f.dim, f.cfg.EWMAAlpha)
		if err != nil {
			// Config was validated in New; this is unreachable.
			panic(err)
		}
		return &ewmaEstimator{e: e}
	default:
		return stats.NewVectorMA(f.dim)
	}
}

// Filter implements fl.Filter, running the three AsyncFilter steps. Each
// update vector is streamed twice — once for its distance to the pre-batch
// estimate, once more when it is folded — and everything else works on the
// round's scratch.
//
//afl:hotpath
func (f *AsyncFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	f.rounds++
	n := len(updates)
	if n == 0 {
		return fl.FilterResult{}, nil
	}
	if f.dim == 0 {
		f.dim = len(updates[0].Delta)
	}
	for i, u := range updates {
		if len(u.Delta) != f.dim {
			return fl.FilterResult{}, fmt.Errorf("core: Filter: update %d has dim %d, want %d", i, len(u.Delta), f.dim)
		}
	}
	s := &f.scratch

	// Step 1: group by staleness (Eq. 4).
	f.groupRound(updates)
	if f.cfg.Estimator == EstimatorBatch {
		// Batch-only estimators fold the whole (unfiltered) batch: they
		// have no cross-round state to protect.
		for g, est := range s.ests {
			f.gather(updates, g, nil)
			est.AddAll(s.xs)
		}
	}

	// Step 2: distances to the own-group estimate (Eq. 6) and score
	// normalization (Eq. 7). Updates are scored against the estimator
	// state from BEFORE this batch, so crafted updates cannot drag the
	// estimate toward themselves in the round they arrive; the estimators
	// are extended with the accepted updates only, after the verdicts
	// (see fold below). A slot's members are scored together, four per
	// pass over their reference.
	s.pooled = nil
	s.dists = grow(s.dists, n)
	s.gathered = grow(s.gathered, n)
	for g := range s.keys {
		f.gather(updates, g, nil)
		if len(s.members) == 0 {
			continue
		}
		ref, out := f.referenceMean(g, updates), s.gathered[:len(s.members)]
		vecmath.Distances(out, ref, s.xs)
		for j, i := range s.members {
			s.dists[i] = out[j]
		}
	}
	clear(s.xs)
	// The verdicts and scores escape to the caller, LastScores and the
	// observer, so they alone are fresh every round.
	res := fl.AcceptAllScored(n)
	f.normalize(res.Scores, updates)
	f.lastScores = res.Scores

	// Small batches cannot support K clusters; accept wholesale.
	if n < f.cfg.MinBatch {
		f.fold(updates, res.Decisions)
		f.emit(round, updates, res, nil, nil, true)
		return res, nil
	}

	// Step 3: K-means over scores; highest cluster rejected, lowest
	// accepted, middle per policy.
	km, err := s.km.KMeans1D(res.Scores, f.cfg.K, f.rng, cluster.Options{})
	if err != nil {
		return fl.FilterResult{}, fmt.Errorf("core: Filter: clustering: %w", err)
	}

	// Clusters come back ordered by ascending center. Identify the lowest
	// and highest non-empty clusters.
	lowest, highest := -1, -1
	for c := 0; c < f.cfg.K; c++ {
		if km.Sizes[c] == 0 {
			continue
		}
		if lowest == -1 {
			lowest = c
		}
		highest = c
	}
	if lowest == highest {
		// All scores in one cluster: indistinguishable, accept everything.
		f.fold(updates, res.Decisions)
		f.emit(round, updates, res, km.Assignments, nil, false)
		return res, nil
	}

	s.eligible = grow(s.eligible, f.cfg.K)
	for c := range s.eligible {
		s.eligible[c] = c != lowest && km.Sizes[c] > 0 && f.guardPasses(c, res.Scores, km)
	}
	for i, c := range km.Assignments {
		switch {
		case !s.eligible[c]:
		case c == highest:
			res.Decisions[i] = fl.Reject
		default:
			res.Decisions[i] = f.cfg.MiddlePolicy
		}
	}
	var preAmnesty []fl.Decision
	if f.obs != nil {
		s.pre = append(s.pre[:0], res.Decisions...)
		preAmnesty = s.pre
	}
	f.applyAmnesty(updates, res.Decisions)
	f.fold(updates, res.Decisions)
	f.emit(round, updates, res, km.Assignments, preAmnesty, false)
	return res, nil
}

// groupRound fills the round's slot table. Every live group gets a slot —
// under the persistent estimators that is every group the filter tracks,
// in this batch or not, since an absent neighbour can still serve as a
// reference — and every staleness key seen for the first time gets a
// fresh estimator. EstimatorBatch is the ablation with no cross-round
// memory: its live groups are this batch's, with new estimators each
// round.
func (f *AsyncFilter) groupRound(updates []*fl.Update) {
	s := &f.scratch
	persistent := f.cfg.Estimator != EstimatorBatch
	s.keys = s.keys[:0]
	if persistent {
		for k := range f.groups {
			s.keys = append(s.keys, k)
		}
	}
	for _, u := range updates {
		k := f.groupKey(u)
		if slices.Contains(s.keys, k) {
			continue
		}
		s.keys = append(s.keys, k)
		if persistent {
			f.groups[k] = f.newEstimator()
		}
	}
	slices.Sort(s.keys)
	s.ests = s.ests[:0]
	for _, k := range s.keys {
		if persistent {
			s.ests = append(s.ests, f.groups[k])
		} else {
			s.ests = append(s.ests, f.newEstimator())
		}
	}
	s.slotOf = grow(s.slotOf, len(updates))
	for i, u := range updates {
		s.slotOf[i], _ = slices.BinarySearch(s.keys, f.groupKey(u))
	}
}

// guardPasses is the rejection guard: k-means always yields K clusters,
// even on pure noise, so cluster c receives a non-accept verdict only when
// it is statistically separated from the clusters below it: its center
// must sit RejectThreshold standard deviations above their mean.
func (f *AsyncFilter) guardPasses(c int, scores []float64, km *cluster.Result) bool {
	var below stats.Welford
	for i, s := range scores {
		if km.Assignments[i] < c {
			below.Add(s)
		}
	}
	// The clusters below must hold a majority of the batch: the benign
	// population is assumed to outnumber the attackers, so a cluster that
	// towers over only a small minority is not evidence of an attack (it
	// usually means the batch's bulk is above it).
	if below.N() < 2 || below.N() <= len(scores)/2 {
		return false
	}
	sd := below.StdDev()
	if vecmath.IsZero(sd) {
		// Identical lower scores: any strictly larger center separates.
		return km.Centers[c][0] > below.Mean()
	}
	return km.Centers[c][0] >= below.Mean()+f.cfg.RejectThreshold*sd
}

// fold extends the persistent estimators with the non-rejected updates
// (EstimatorBatch has no persistent state and skips this), one group at a
// time, each in arrival order. Duplicate deltas from different clients are
// folded once:
// colluding attackers all transmit the same crafted vector (LIE, Min-Max
// and Min-Sum do), and folding it per-sender would let the collusion drag
// the group estimate toward the poison with k times its fair weight. The
// dedup needs only the vectors, so a group's members are chosen first and
// folded in one AddAll.
func (f *AsyncFilter) fold(updates []*fl.Update, decisions []fl.Decision) {
	if f.cfg.Estimator == EstimatorBatch {
		return
	}
	s := &f.scratch
	for g, est := range s.ests {
		f.gather(updates, g, func(i int) bool {
			return decisions[i] != fl.Reject && !s.alreadyFolded(updates, i)
		})
		if f.cfg.Estimator == EstimatorEWMA && len(s.xs) > 0 {
			// EWMA is an across-rounds smoother: it folds one observation
			// per round (the group's accepted batch mean) so in-batch
			// arrival order cannot bias the estimate.
			s.sum = grow(s.sum, f.dim)
			vecmath.MeanVector(s.sum, s.xs)
			s.xs = append(s.xs[:0], s.sum)
		}
		est.AddAll(s.xs)
	}
	clear(s.xs)
}

// gather collects the updates of slot g that keep admits (all of them
// when keep is nil), in arrival order: their indices into s.members and
// their deltas into s.xs. keep may read s.members, the slot's updates
// admitted so far. The caller clears s.xs once its kernel has run, so the
// scratch holds no update past the round.
func (f *AsyncFilter) gather(updates []*fl.Update, g int, keep func(i int) bool) {
	s := &f.scratch
	s.members, s.xs = s.members[:0], s.xs[:0]
	for i, u := range updates {
		if s.slotOf[i] != g || (keep != nil && !keep(i)) {
			continue
		}
		s.members = append(s.members, i)
		s.xs = append(s.xs, u.Delta)
	}
}

// alreadyFolded reports whether update i repeats, to within 1e-12 per
// coordinate, a vector already chosen for folding into its group this
// round.
func (s *roundScratch) alreadyFolded(updates []*fl.Update, i int) bool {
	for _, j := range s.members {
		if vecmath.EqualApprox(updates[j].Delta, updates[i].Delta, 1e-12) {
			return true
		}
	}
	return false
}

// applyAmnesty enforces the rejection cooldown: clients holding an
// exemption credit get their non-accept verdict converted to accept, and
// fresh rejections grant the client RejectCooldown credits.
func (f *AsyncFilter) applyAmnesty(updates []*fl.Update, decisions []fl.Decision) {
	if f.cfg.RejectCooldown < 0 {
		return
	}
	for i, u := range updates {
		if decisions[i] == fl.Accept {
			continue
		}
		if f.amnesty[u.ClientID] > 0 {
			f.amnesty[u.ClientID]--
			decisions[i] = fl.Accept
			continue
		}
		if decisions[i] == fl.Reject {
			f.amnesty[u.ClientID] = f.cfg.RejectCooldown
		}
	}
}

// referenceMean picks the estimate the members of slot g are scored
// against: the group's own estimator when it has history, otherwise the
// estimator of the nearest staleness group that has (model drift is smooth
// in staleness, so a neighbouring group is a far better reference than the
// whole batch; of two neighbours at the same distance the lower, fresher
// one wins, which scanning slots in ascending staleness gives for free),
// otherwise the pooled batch mean. That last case needs no live group to
// have two observations — the first round of a filter's life and hardly
// ever again — so the pooled mean, one more pass over every update, is
// computed only when a round gets here.
func (f *AsyncFilter) referenceMean(g int, updates []*fl.Update) []float64 {
	s := &f.scratch
	if s.ests[g].Count() >= 2 {
		return s.ests[g].Mean()
	}
	nearest, nearestDist := -1, 0
	for j, est := range s.ests {
		if est.Count() < 2 {
			continue
		}
		d := s.keys[j] - s.keys[g]
		if d < 0 {
			d = -d
		}
		if nearest == -1 || d < nearestDist {
			nearest, nearestDist = j, d
		}
	}
	if nearest != -1 {
		return s.ests[nearest].Mean()
	}
	if s.pooled == nil {
		var pooled estimator = stats.NewVectorMA(f.dim)
		all := make([][]float64, len(updates))
		for i, u := range updates {
			all[i] = u.Delta
		}
		pooled.AddAll(all)
		s.pooled = pooled.Mean()
	}
	return s.pooled
}

// normalize converts the round's raw distances into suspicious scores per
// the configured normalization. scores arrives zeroed.
func (f *AsyncFilter) normalize(scores []float64, updates []*fl.Update) {
	s := &f.scratch
	switch {
	case f.cfg.Normalization == NormalizeGroupRMS:
		// Per-group robust normalization: divide each member's distance
		// by its group's median distance.
		s.gathered = grow(s.gathered, len(s.dists))
		for g := range s.keys {
			m := 0
			for i, d := range s.dists {
				if s.slotOf[i] == g {
					s.gathered[m] = d
					m++
				}
			}
			if m == 0 {
				continue
			}
			med := stats.MedianInPlace(s.gathered[:m])
			for i, d := range s.dists {
				switch {
				case s.slotOf[i] != g:
				case med > 0:
					scores[i] = d / med
				case vecmath.IsZero(d):
					scores[i] = 1
				default:
					scores[i] = 2 // positive distance over a zero-median group
				}
			}
		}

	case f.cfg.Normalization == NormalizeGroups && len(s.keys) >= 2:
		// Eq. 7 literal: per-client denominator over all group estimates,
		// each client's squared distances summed in slot order.
		s.denom = grow(s.denom, len(updates))
		clear(s.denom)
		s.xs = s.xs[:0]
		for _, u := range updates {
			s.xs = append(s.xs, u.Delta)
		}
		out := s.gathered[:len(updates)]
		for _, est := range s.ests {
			vecmath.Distances(out, est.Mean(), s.xs)
			for i, d := range out {
				s.denom[i] += d * d
			}
		}
		clear(s.xs)
		for i, denom := range s.denom {
			if denom <= 0 {
				continue
			}
			scores[i] = s.dists[i] / math.Sqrt(denom)
		}

	default:
		// Batch normalization: scores sum-of-squares to 1 across the batch.
		var denom float64
		for _, d := range s.dists {
			denom += d * d
		}
		if denom <= 0 {
			return // all zero distances -> all zero scores
		}
		inv := 1 / math.Sqrt(denom)
		for i, d := range s.dists {
			scores[i] = d * inv
		}
	}
}

// LastScores returns the suspicious scores computed by the most recent
// Filter call (diagnostics; the slice is owned by the filter).
func (f *AsyncFilter) LastScores() []float64 { return f.lastScores }

// GroupCount returns the number of staleness groups tracked so far.
func (f *AsyncFilter) GroupCount() int { return len(f.groups) }
