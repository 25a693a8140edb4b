package main

import (
	"sync/atomic"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
)

// The taps are how the benchmark sees inside the system under test
// without touching it: decorators passed through the public fl.Filter /
// fl.Combiner constructor arguments. Tracing inside the program is a
// later change (ROADMAP item 5).

// updateRing records (time, round, client, base version) of the updates
// that passed a tap, newest overwriting oldest. Columns rather than
// structs so the dump gob-encodes as four flat slices.
type updateRing struct {
	Wall   []int64
	Round  []int32
	Client []int32
	Base   []int64
	// N is the number of updates ever recorded; the ring holds the last
	// len(Wall) of them.
	N int64
}

func newUpdateRing(size int) *updateRing {
	return &updateRing{
		Wall:   make([]int64, size),
		Round:  make([]int32, size),
		Client: make([]int32, size),
		Base:   make([]int64, size),
	}
}

func (r *updateRing) add(wall int64, round int, updates []*fl.Update) {
	for _, u := range updates {
		i := r.N % int64(len(r.Wall))
		r.Wall[i], r.Round[i], r.Client[i], r.Base[i] = wall, int32(round), int32(u.ClientID), int64(u.BaseVersion)
		r.N++
	}
}

// roundSpan is one aggregation round as the taps saw it (wall ns).
type roundSpan struct {
	Round                    int
	FilterStart, FilterEnd   int64
	CombineStart, CombineEnd int64
	Batch, Accepted          int
}

// maxRoundSpans caps the per-round span log of a traced run.
const maxRoundSpans = 1 << 16

// tap sits on one server's filter and combiner. The combiner half (the
// commit tap) runs in timed and traced runs alike and does nothing but
// stamp the ring; the filter half and all timing exist only when the SUT
// was started traced, and are switched by the tracing flag so one
// process yields both the untraced and the traced throughput.
type tap struct {
	name     string
	combiner fl.Combiner
	tracing  *atomic.Bool

	// commits is stamped when the combiner returns: the moment the round
	// that folds an update into the model is decided.
	commits *updateRing
	// entries is stamped when the filter is entered: the end of an
	// update's buffer wait. Traced SUT only.
	entries *updateRing
	// rounds logs one span per traced round: the filter half appends it,
	// the combiner half completes it (a round that accepts nothing never
	// reaches the combiner and keeps a zero combine interval).
	rounds []roundSpan
	// seenBy, rejectedBy and deferredBy count the filter's verdicts per
	// client id while tracing; only the generator knows which ids are
	// poisoned, so the split by role happens in the parent.
	seenBy, rejectedBy, deferredBy []int64

	// Counters read live by the control channel.
	accepted                                atomic.Int64
	filterNs, filterCalls, filterUpdates    atomic.Int64
	combineNs, combineCalls, combineUpdates atomic.Int64
}

func newTap(name string, tracing *atomic.Bool, ringSize int, traced bool) *tap {
	t := &tap{name: name, combiner: fl.MeanCombiner{}, tracing: tracing, commits: newUpdateRing(ringSize)}
	if traced {
		t.entries = newUpdateRing(ringSize)
		t.seenBy = make([]int64, numClients)
		t.rejectedBy = make([]int64, numClients)
		t.deferredBy = make([]int64, numClients)
	}
	return t
}

// Combine implements fl.Combiner: the commit tap.
func (t *tap) Combine(updates []*fl.Update, cfg fl.AggregatorConfig) ([]float64, error) {
	tracing := t.tracing.Load()
	var start time.Time
	if tracing {
		start = time.Now()
	}
	delta, err := t.combiner.Combine(updates, cfg)
	now := time.Now()
	calls := t.combineCalls.Add(1)
	t.commits.add(now.UnixNano(), int(calls), updates)
	t.accepted.Add(int64(len(updates)))
	if tracing {
		t.combineNs.Add(int64(now.Sub(start)))
		t.combineUpdates.Add(int64(len(updates)))
		if n := len(t.rounds); n > 0 && t.rounds[n-1].CombineEnd == 0 {
			last := &t.rounds[n-1]
			last.CombineStart, last.CombineEnd, last.Accepted = start.UnixNano(), now.UnixNano(), len(updates)
		}
	}
	return delta, err
}

// Name implements fl.Combiner.
func (t *tap) Name() string { return t.combiner.Name() }

// filterTap decorates a core.AsyncFilter. Embedding the concrete filter
// forwards StateSnapshotter, StateMerger, StateDiffer and
// ObservableFilter untouched, so checkpoints, hand-offs, replication
// deltas and the obsv hub see the filter exactly as they would undecorated.
type filterTap struct {
	*core.AsyncFilter
	t *tap
}

// Filter implements fl.Filter.
func (f filterTap) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	t := f.t
	if !t.tracing.Load() {
		return f.AsyncFilter.Filter(updates, round)
	}
	start := time.Now()
	t.entries.add(start.UnixNano(), round, updates)
	res, err := f.AsyncFilter.Filter(updates, round)
	end := time.Now()
	t.filterNs.Add(int64(end.Sub(start)))
	t.filterCalls.Add(1)
	t.filterUpdates.Add(int64(len(updates)))
	for i, d := range res.Decisions {
		id := updates[i].ClientID
		t.seenBy[id]++
		switch d {
		case fl.Reject:
			t.rejectedBy[id]++
		case fl.Defer:
			t.deferredBy[id]++
		}
	}
	if len(t.rounds) < maxRoundSpans {
		t.rounds = append(t.rounds, roundSpan{Round: round, FilterStart: start.UnixNano(), FilterEnd: end.UnixNano(), Batch: len(updates)})
	}
	return res, err
}

// tapDump is what a tap hands to the parent process at exit.
type tapDump struct {
	Name             string
	Commits, Entries *updateRing
	Rounds           []roundSpan
	// SeenBy, RejectedBy and DeferredBy are indexed by client id.
	SeenBy, RejectedBy, DeferredBy []int64
}

func (t *tap) dump() tapDump {
	return tapDump{
		Name: t.name, Commits: t.commits.filled(), Entries: t.entries.filled(), Rounds: t.rounds,
		SeenBy: t.seenBy, RejectedBy: t.rejectedBy, DeferredBy: t.deferredBy,
	}
}

// filled trims a ring that never wrapped to the part that was written.
func (r *updateRing) filled() *updateRing {
	if r == nil || r.N >= int64(len(r.Wall)) {
		return r
	}
	return &updateRing{Wall: r.Wall[:r.N], Round: r.Round[:r.N], Client: r.Client[:r.N], Base: r.Base[:r.N], N: r.N}
}
