package fl

import (
	"fmt"
	"log"
	"runtime/debug"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Engine is the server's round, the one sequence of the paper's Algorithm
// 1: filter the drained batch, combine what survives, apply the delta,
// bump the version, age what was deferred. The simulator, transport.Server
// and topology.Root all drive it; what stays with them is what differs —
// where the batch comes from, which lock guards the model, and what a
// committed round triggers (attack crafting, checkpoints, replication).
//
// A round is three calls so each caller keeps its own locking:
//
//	rd := e.Decide(batch, version)          // no server state touched: outside the lock
//	version = e.Commit(&rd, global, queue)  // under the lock
//	e.Observe(&rd)                          // outside the lock again, before accepted updates are recycled
//
// Policy: a filter that fails or panics must not wedge a deployment, so
// the batch is accepted wholesale (FedBuff) and the failure reported in
// Round.FilterErr; a combiner that fails or panics loses the round's delta
// but the round still commits; every recovered panic is counted in
// Round.Panics for the caller's stats. Callers for which a failure is
// fatal (the simulator) check the two error fields before committing.
//
// Ownership: Decide only reads the batch. The Round's three slices alias
// the batch's updates; Commit hands the deferred ones to the queue, after
// which the caller must not touch them, while accepted and rejected ones
// stay the caller's to recycle once Observe has returned.
type Engine struct {
	filter   Filter
	combiner Combiner
	agg      AggregatorConfig
	// observer is the filter's post-commit hook, when it has one.
	observer RoundObserver
}

// NewEngine builds the round engine. filter nil selects pass-through
// (FedBuff); combiner nil selects the weighted mean.
func NewEngine(filter Filter, combiner Combiner, agg AggregatorConfig) *Engine {
	if filter == nil {
		filter = Passthrough{}
	}
	if combiner == nil {
		combiner = MeanCombiner{}
	}
	e := &Engine{filter: filter, combiner: combiner, agg: agg}
	e.observer, _ = filter.(RoundObserver)
	return e
}

// Filter returns the engine's filter.
func (e *Engine) Filter() Filter { return e.filter }

// Round is the outcome of one round.
type Round struct {
	// Number is the model version the round produces.
	Number int
	// Result holds the verdicts, positionally over the batch given to
	// Decide (all Accept after a filter failure).
	Result FilterResult
	// Accepted, Deferred and Rejected partition the batch, in order.
	Accepted, Deferred, Rejected []*Update
	// Delta is the combiner's output, before ServerLR; nil when nothing
	// was accepted or the combiner failed.
	Delta []float64
	// FilterErr and CombineErr report a failed or panicking filter and
	// combiner; the round is still valid (see Engine).
	FilterErr, CombineErr error
	// Panics counts the panics Guard recovered: in the filter, the
	// combiner, the observer and whatever else the caller guarded.
	Panics int
	// DroppedStale counts deferred updates Commit aged past the queue's
	// staleness limit.
	DroppedStale int
	// observed is the committed model as the observer will see it.
	observed []float64
}

// Decide runs the round that follows version: it filters the batch and
// combines what was accepted. It touches no server state and may take
// O(batch · dim): run it outside any lock.
func (e *Engine) Decide(batch []*Update, version int) Round {
	rd := Round{Number: version + 1}
	if len(batch) == 0 {
		return rd
	}
	rd.FilterErr = rd.Guard("filter", func() (err error) {
		rd.Result, err = e.filter.Filter(batch, rd.Number)
		if err == nil && len(rd.Result.Decisions) != len(batch) {
			err = fmt.Errorf("fl: filter %s returned %d decisions for %d updates", e.filter.Name(), len(rd.Result.Decisions), len(batch))
		}
		return err
	})
	if rd.FilterErr != nil {
		log.Printf("fl: filter failed in round %d, accepting the batch: %v", rd.Number, rd.FilterErr)
		rd.Result = AcceptAll(len(batch))
	}
	rd.Accepted, rd.Deferred, rd.Rejected = rd.Result.Split(batch)
	if len(rd.Accepted) == 0 {
		return rd
	}
	rd.CombineErr = rd.Guard("combiner", func() (err error) {
		rd.Delta, err = e.combiner.Combine(rd.Accepted, e.agg)
		return err
	})
	if rd.CombineErr != nil {
		log.Printf("fl: combiner failed in round %d, the round commits without a delta: %v", rd.Number, rd.CombineErr)
		rd.Delta = nil
	}
	return rd
}

// Guard runs one of the round's plug-in calls — filter, combiner,
// observer, a server's commit hook — and turns a panic into an error,
// logged with its stack and counted in Panics. A panic escaping a round
// would unwind past the code that releases the caller's round slot.
func (rd *Round) Guard(what string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			rd.Panics++
			log.Printf("fl: recovered %s panic in round %d: %v\n%s", what, rd.Number, r, debug.Stack())
			err = fmt.Errorf("fl: %s panic: %v", what, r)
		}
	}()
	return fn()
}

// Commit applies the round to the caller's model: global += ServerLR ·
// Delta (one rule for every combiner), and the deferred updates return to
// queue one round older, those past its staleness limit dropped. It
// returns the new model version, which advances even when nothing was
// accepted: the round happened, and staleness accounting depends on it.
// The caller holds whatever lock guards global, its version and queue;
// Commit does nothing that blocks.
//
//afl:owned
func (e *Engine) Commit(rd *Round, global []float64, queue *Buffer) (version int) {
	if rd.Delta != nil {
		lr := e.agg.ServerLR
		if vecmath.IsZero(lr) {
			lr = 1
		}
		vecmath.AXPY(global, lr, rd.Delta)
	}
	rd.DroppedStale = queue.Requeue(rd.Deferred)
	if e.observer != nil {
		rd.observed = vecmath.Clone(global)
	}
	return rd.Number
}

// Observe tells a RoundObserver filter about the committed round. It is a
// no-op for other filters. Run it outside the lock, after Commit and
// before the accepted updates are recycled, with the filter still
// quiescent.
func (e *Engine) Observe(rd *Round) {
	if e.observer == nil {
		return
	}
	_ = rd.Guard("observer", func() error { // the panic is counted; there is nothing to fall back to
		e.observer.ObserveRound(rd.Number, rd.observed, rd.Accepted)
		return nil
	})
}
