package fl

import (
	"fmt"
	"sort"
)

// Buffer is the FedBuff server-side update buffer: arriving client updates
// accumulate until the aggregation goal is reached, and updates staler than
// the server's staleness limit are discarded on arrival.
//
// Buffer is not safe for concurrent use; the simulator and the transport
// server serialize access.
type Buffer struct {
	goal           int
	stalenessLimit int
	updates        []*Update
	droppedStale   int
	received       int
	// fresh counts updates accepted by Add since the last Drain. Requeued
	// deferrals do not count: readiness requires new information (see
	// Ready).
	fresh int
	// obs, when non-nil, receives one BufferEvent per mutating call.
	// Purely observational: no emission may alter buffer behavior.
	obs BufferObserver
}

// NewBuffer builds a buffer that signals readiness once goal updates are
// held and rejects updates with staleness above limit (limit <= 0 disables
// the staleness check).
func NewBuffer(goal, limit int) (*Buffer, error) {
	if goal < 1 {
		return nil, fmt.Errorf("fl: NewBuffer: goal = %d, need >= 1", goal)
	}
	return &Buffer{goal: goal, stalenessLimit: limit}, nil
}

// SetObserver attaches an observer that receives one BufferEvent per
// mutating call (nil detaches). Call before the buffer is shared; the
// buffer itself is not safe for concurrent use.
func (b *Buffer) SetObserver(obs BufferObserver) { b.obs = obs }

// notify emits a state-stamped event; deltas come from the caller.
func (b *Buffer) notify(ev BufferEvent) {
	if b.obs == nil {
		return
	}
	ev.Pending = len(b.updates)
	ev.Fresh = b.fresh
	ev.Ready = b.Ready()
	b.obs.ObserveBuffer(ev)
}

// Add offers an update to the buffer and takes ownership of it. The
// vecalias invariant — the buffer must never share memory with a client
// that can still mutate it, or a malicious client could rewrite its delta
// after submission and corrupt the filter statistics computed from the
// buffered batch (Eq. 5) — used to be enforced by a defensive deep copy
// here. It is now an ownership transfer: the codec layer materializes
// each delta into memory no client aliases (an Arena vector or a freshly
// gob-decoded slice) and Add adopts it, so the invariant holds with zero
// copies. On a true return the buffer owns u and the caller must not
// touch it again; on a false return (staleness drop) ownership stays
// with the caller, who may recycle it into an Arena.
//
//afl:hotpath
//afl:owned
func (b *Buffer) Add(u *Update) bool {
	b.received++
	if b.stalenessLimit > 0 && u.Staleness > b.stalenessLimit {
		b.droppedStale++
		b.notify(BufferEvent{DroppedStale: 1})
		return false
	}
	b.updates = append(b.updates, u)
	b.fresh++
	b.notify(BufferEvent{Added: 1})
	return true
}

// Ready reports whether the aggregation goal has been reached with at
// least one fresh arrival since the last Drain. Requeued deferrals alone
// never re-arm readiness: after a partial (watchdog) drain, the deferred
// remainder can push the buffer back over the goal, and without the
// fresh-arrival requirement every Ready poll would re-aggregate the same
// deferred batch in a tight loop — burning rounds, inflating staleness and
// extracting no new information.
func (b *Buffer) Ready() bool { return b.fresh > 0 && len(b.updates) >= b.goal }

// Len returns the number of buffered updates.
func (b *Buffer) Len() int { return len(b.updates) }

// Goal returns the aggregation goal.
func (b *Buffer) Goal() int { return b.goal }

// StalenessLimit returns the configured limit (<= 0 means disabled).
func (b *Buffer) StalenessLimit() int { return b.stalenessLimit }

// Drain removes and returns all buffered updates.
func (b *Buffer) Drain() []*Update {
	out := b.updates
	b.updates = nil
	b.fresh = 0
	b.notify(BufferEvent{Drained: len(out)})
	return out
}

// Requeue returns deferred updates to the buffer so they participate in the
// next aggregation round, one round older: each commit advances the model
// version by one, so Staleness++ is version − BaseVersion wherever the
// latter is defined, and it is the only rule that also holds at a root,
// whose updates carry edge-local base versions. Updates pushed past the
// staleness limit are dropped and counted; the number dropped is returned.
// Requeued updates may grow the buffer past the goal but do not by
// themselves make it Ready. Ownership of every update in the slice —
// requeued or dropped — transfers to the buffer: they came from Drain, no
// client alias remains, and dropped ones go to the GC (arena recycling is
// deliberately best-effort on this cold path).
//
//afl:owned
func (b *Buffer) Requeue(updates []*Update) (dropped int) {
	requeued := 0
	for _, u := range updates {
		u.Staleness++
		if b.stalenessLimit > 0 && u.Staleness > b.stalenessLimit {
			b.droppedStale++
			dropped++
			continue
		}
		b.updates = append(b.updates, u)
		requeued++
	}
	if requeued > 0 || dropped > 0 {
		b.notify(BufferEvent{Requeued: requeued, DroppedStale: dropped})
	}
	return dropped
}

// OldestBase returns the smallest BaseVersion among buffered updates and
// whether the buffer is non-empty. At any fixed server version the update
// with the smallest BaseVersion is exactly the stalest one, so admission
// control can compare an incoming update against the buffer without the
// buffer knowing the current version.
func (b *Buffer) OldestBase() (int, bool) {
	if len(b.updates) == 0 {
		return 0, false
	}
	oldest := b.updates[0].BaseVersion
	for _, u := range b.updates[1:] {
		if u.BaseVersion < oldest {
			oldest = u.BaseVersion
		}
	}
	return oldest, true
}

// Shed removes and returns the n stalest buffered updates, for
// staleness-aware load shedding: under overload the stalest updates are
// the least valuable to the model and the most hostile to the filter, so
// they are the first to go. Staleness order is BaseVersion order — the
// recorded Staleness fields were computed at different arrival versions
// and are not mutually comparable, but at any fixed server version
// ordering by ascending BaseVersion is exactly ordering by descending
// true staleness. Ties (equal BaseVersion) shed the earlier arrival
// first, and the returned victims are ordered stalest first. The
// survivors keep their arrival order, and the fresh-arrival counter is
// left untouched: shedding removes information, it must not re-arm or
// disarm readiness on its own.
func (b *Buffer) Shed(n int) []*Update {
	if n <= 0 || len(b.updates) == 0 {
		return nil
	}
	if n > len(b.updates) {
		n = len(b.updates)
	}
	// Select the n victims by index: smallest BaseVersion first, earlier
	// arrival breaking ties.
	idx := make([]int, len(b.updates))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return b.updates[idx[i]].BaseVersion < b.updates[idx[j]].BaseVersion
	})
	victim := make(map[int]bool, n)
	shed := make([]*Update, 0, n)
	for _, i := range idx[:n] {
		victim[i] = true
		shed = append(shed, b.updates[i])
	}
	kept := b.updates[:0]
	for i, u := range b.updates {
		if !victim[i] {
			kept = append(kept, u)
		}
	}
	// Clear the tail so shed updates are not retained by the backing array.
	for i := len(kept); i < len(b.updates); i++ {
		b.updates[i] = nil
	}
	b.updates = kept
	b.notify(BufferEvent{Shed: len(shed)})
	return shed
}

// Stats reports lifetime counters: total updates offered and updates
// dropped for staleness.
func (b *Buffer) Stats() (received, droppedStale int) {
	return b.received, b.droppedStale
}

// BufferState is the serializable snapshot of a Buffer's durable state:
// the pending updates plus the lifetime counters. The aggregation goal
// and staleness limit are configuration, not state, and stay with the
// server config across a restore.
type BufferState struct {
	Updates      []*Update
	Received     int
	DroppedStale int
}

// Snapshot deep-copies the buffer's durable state for checkpointing.
func (b *Buffer) Snapshot() BufferState {
	st := BufferState{
		Updates:      make([]*Update, len(b.updates)),
		Received:     b.received,
		DroppedStale: b.droppedStale,
	}
	for i, u := range b.updates {
		st.Updates[i] = CloneUpdate(u)
	}
	return st
}

// Restore replaces the buffer's contents and counters with a snapshot,
// deep-copying the updates. Restored updates count as fresh: they were
// live arrivals when the snapshot was taken, so a restored buffer at goal
// aggregates as soon as the server consumes it.
func (b *Buffer) Restore(st BufferState) {
	b.updates = make([]*Update, len(st.Updates))
	for i, u := range st.Updates {
		b.updates[i] = CloneUpdate(u)
	}
	b.received = st.Received
	b.droppedStale = st.DroppedStale
	b.fresh = len(b.updates)
	b.notify(BufferEvent{Added: len(b.updates)})
}
