package topology

import (
	"errors"
	"fmt"
	"log"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// This file is the root's replication surface — what internal/replica
// drives to turn a Root into one node of a primary/standby group:
//
//   - On the primary, SetOnCommit taps every applied batch as a
//     transport.ReplRecord and SnapshotBlob captures the full durable
//     state for a standby attaching too far behind the log.
//   - On a standby, InstallSnapshot and ApplyRecord mirror the primary's
//     commits into a root that HoldUntilPromoted keeps from serving edges.
//   - Fencing: every edge request carries an epoch (EdgeMsg.Epoch); a
//     root that sees an epoch above its own answers NackFenced and
//     Fence()s itself — a resurrected old primary demotes instead of
//     split-braining the filter state. PromoteEpoch is the standby's
//     promotion step: bump the epoch and persist it before serving.
//
// The fencing invariant: an epoch is bumped exactly once per promotion,
// persisted in the promoting root's checkpoint before it accepts its
// first edge, and adopted by edges from every reply. Two roots can
// therefore never both believe they own the same epoch, and the one with
// the lower epoch refuses (and tears itself down) the moment any edge
// that has seen the higher epoch talks to it.

// SetPeers publishes the static root peer list (the edge-facing address
// of every replica, promoted or not). Edges receive it piggybacked on
// replies — the same mechanism as shard-map pushes — and rotate through
// it to find the promoted standby when their current root dies.
func (r *Root) SetPeers(addrs []string) {
	clone := append([]string(nil), addrs...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers = clone
	r.peersVersion++
}

// ErrEpochNotAbove is PromoteEpoch's refusal: the requested epoch is not
// above the one the root already holds.
var ErrEpochNotAbove = errors.New("topology: epoch not above current")

// Epoch returns the fencing epoch this root serves under.
func (r *Root) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch.Load()
}

// HoldUntilPromoted keeps the root from serving edges until PromoteEpoch
// succeeds: each connection is dropped unanswered, as a closed or fenced
// root drops it, so a re-homing edge reads EOF and rotates to its next
// peer. A standby calls it before Serve; the root may then serve its edge
// listener from the start.
func (r *Root) HoldUntilPromoted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held = true
}

// PromoteEpoch raises the root's fencing epoch — a standby's promotion
// step. The new epoch is persisted in the checkpoint (when configured)
// BEFORE the method returns, so a promoted root that crashes cannot come
// back believing in its pre-promotion epoch. Epochs only move forward:
// an epoch not above the current one is refused with ErrEpochNotAbove.
// Any other error means the persist failed. The epoch is then raised in
// memory only, so it is never handed out twice, and the root stays held.
// On success the hold is released: no edge is served before the
// promoted epoch is durable.
func (r *Root) PromoteEpoch(epoch uint64) error {
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()
	r.mu.Lock()
	if !r.epoch.Raise(epoch) {
		cur := r.epoch.Load()
		r.mu.Unlock()
		return fmt.Errorf("%w: PromoteEpoch(%d) at %d", ErrEpochNotAbove, epoch, cur)
	}
	r.mu.Unlock()
	if r.cfg.CheckpointPath != "" {
		if err := r.writeCheckpoint(); err != nil {
			return fmt.Errorf("topology: PromoteEpoch(%d): persist: %w", epoch, err)
		}
	}
	r.mu.Lock()
	r.held = false
	r.mu.Unlock()
	return nil
}

// ObserveEpoch raises the root's fencing epoch to a value a live peer
// proved exists (a standby hearing its primary's pushes). Epochs only
// move forward; lower values are ignored. Unlike PromoteEpoch this does
// not persist — the next checkpoint or snapshot install carries it.
func (r *Root) ObserveEpoch(epoch uint64) {
	r.mu.Lock()
	r.epoch.Raise(epoch)
	r.mu.Unlock()
}

// SetOnCommit installs the per-applied-batch replication tap. It must be
// set before Serve; fn is called while the round slot is held, so records
// arrive in strict version order and fn must not block on the root.
func (r *Root) SetOnCommit(fn func(*transport.ReplRecord)) {
	r.onCommit = fn
}

// Fenced reports whether this root has demoted itself after seeing a
// newer epoch.
func (r *Root) Fenced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fenced
}

// Fence demotes the root: it stops accepting work, tears down the
// listener and every edge connection, and fires Done. Idempotent. Called
// when any peer — edge or standby — proves a newer primary exists. The
// checkpoint is deliberately NOT rewritten: the fenced root's state is
// stale by definition and must not clobber a newer on-disk snapshot
// written by the same path.
func (r *Root) Fence() {
	r.mu.Lock()
	if r.fenced {
		r.mu.Unlock()
		return
	}
	r.fenced = true
	r.closed = true
	r.closeDone()
	r.mu.Unlock()

	log.Printf("topology: root fenced: a newer primary epoch exists, demoting")
	_ = r.core.Close() // a listener error changes nothing for a demoted root
}

// fenceCheck inspects a request's fencing epoch. A nil return admits the
// request; a non-nil return is the NackFenced reply to send before the
// caller Fence()s the root. (The reply carries the stale root's own
// epoch for diagnostics.)
func (r *Root) fenceCheck(epoch uint64) *transport.RootMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch.Load() {
		return nil
	}
	r.stats.FencedNacks++
	r.stats.NacksSent++
	return &transport.RootMsg{Nack: transport.NackFenced, Epoch: r.epoch.Load()}
}

// SnapshotBlob captures the root's full durable state as an
// internal/checkpoint container — the exact bytes a checkpoint file
// would hold — and the version it represents. The replication stream
// sends it to a standby attaching too far behind the log.
func (r *Root) SnapshotBlob() ([]byte, uint64, error) {
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()
	ck := r.captureCkpt()
	raw, err := checkpoint.Encode(&ck)
	if err != nil {
		return nil, 0, fmt.Errorf("topology: SnapshotBlob: %w", err)
	}
	return raw, uint64(ck.Version), nil
}

// InstallSnapshot replaces a standby root's state with a SnapshotBlob
// container received from the primary. All-or-nothing up to the filter
// restore (see adoptCkpt). Returns the snapshot's version.
func (r *Root) InstallSnapshot(raw []byte) (uint64, error) {
	var ck rootCkpt
	if err := checkpoint.Decode(raw, &ck, "replication snapshot"); err != nil {
		return 0, fmt.Errorf("topology: InstallSnapshot: %w", err)
	}
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()
	if err := r.adoptCkpt(&ck, "install replication snapshot"); err != nil {
		return 0, err
	}
	return uint64(ck.Version), nil
}

// ApplyRecord mirrors one primary commit into a standby root: the model
// delta, the version, the per-edge idempotency watermark, the shard-map
// version and the filter-state delta. Records must arrive in strict
// sequence order (Seq == version+1); anything else is refused so the
// caller resynchronizes from a snapshot instead of diverging silently.
func (r *Root) ApplyRecord(rec *transport.ReplRecord) error {
	if rec == nil {
		return errors.New("topology: ApplyRecord: nil record")
	}
	if rec.EdgeID < 0 {
		return fmt.Errorf("topology: ApplyRecord: EdgeID = %d, need >= 0", rec.EdgeID)
	}
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()

	r.mu.Lock()
	if rec.Seq != uint64(r.version)+1 {
		have := r.version
		r.mu.Unlock()
		return fmt.Errorf("topology: ApplyRecord: seq %d, root at version %d", rec.Seq, have)
	}
	if rec.Delta != nil && len(rec.Delta) != len(r.global) {
		r.mu.Unlock()
		return fmt.Errorf("topology: ApplyRecord: delta dim %d, model has %d", len(rec.Delta), len(r.global))
	}
	es, ok := r.edges[rec.EdgeID]
	if !ok {
		es = &edgeState{id: rec.EdgeID}
		r.edges[rec.EdgeID] = es
		r.stats.EdgesConnected++
	}
	if rec.BatchID > es.lastApplied {
		es.lastApplied = rec.BatchID
	}
	if rec.EdgeAddr != "" {
		es.clientAddr = rec.EdgeAddr
	}
	// The same commit as the primary's, so the models stay bit-identical
	// under any ServerLR; a standby mirrors no deferred queue.
	r.version = r.engine.Commit(&fl.Round{Number: int(rec.Seq), Delta: rec.Delta}, r.global, r.deferred)
	r.epoch.Raise(rec.Epoch)
	if rec.ShardVersion > r.shard.Version {
		r.shard.Version = rec.ShardVersion
	}
	r.stats.Rounds = r.version
	r.stats.BatchesApplied++
	r.stats.Accepted += rec.Accepted
	r.stats.Deferred += rec.Deferred
	r.stats.Rejected += rec.Rejected
	finished := r.version >= r.cfg.Rounds && !r.finished
	if finished {
		r.finished = true
	}
	r.mu.Unlock()

	// Filter state applies outside every lock (merges are O(groups·dim));
	// the round slot keeps the filter quiescent. A failure here leaves
	// the standby's model ahead of its filter — the caller must force a
	// snapshot resync rather than stream on.
	var ferr error
	if len(rec.FilterState) > 0 {
		if rec.FilterFull {
			if sf, ok := r.engine.Filter().(fl.StateSnapshotter); ok {
				ferr = sf.RestoreState(rec.FilterState)
			} else {
				ferr = fmt.Errorf("topology: ApplyRecord: filter %q cannot restore state", r.engine.Filter().Name())
			}
		} else {
			if m, ok := r.engine.Filter().(fl.StateMerger); ok {
				ferr = m.MergeState(rec.FilterState)
			} else {
				ferr = fmt.Errorf("topology: ApplyRecord: filter %q cannot merge state", r.engine.Filter().Name())
			}
		}
	}
	if finished {
		r.closeDone()
	}
	if ferr != nil {
		return fmt.Errorf("topology: ApplyRecord: seq %d filter state: %w", rec.Seq, ferr)
	}
	return nil
}

// filterReplState returns the filter-state payload for the next
// replication record: a delta against the previous record's state, or
// the full state on a stream's first record and wherever no exact delta
// exists (see fl.StateDiffer). A filter that cannot diff ships no state.
// The caller holds the round slot.
func (r *Root) filterReplState() ([]byte, bool) {
	differ, ok := r.engine.Filter().(fl.StateDiffer)
	if !ok {
		return nil, false
	}
	state, full, base, err := differ.DiffSince(r.replBase)
	if err != nil {
		log.Printf("topology: replication filter state failed: %v", err)
		r.replBase = nil
		return nil, false
	}
	r.replBase = base
	return state, full
}
