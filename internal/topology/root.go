package topology

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/fence"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/transport"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// RootConfig parameterizes the root aggregation server of a two-tier
// deployment.
type RootConfig struct {
	// InitialParams seeds the fleet-wide global model.
	InitialParams []float64
	// Rounds is the number of applied batches (root rounds) before the
	// deployment completes.
	Rounds int
	// StalenessLimit discards deferred updates that have waited more than
	// this many root rounds for a verdict (0 disables).
	StalenessLimit int
	// Aggregator configures aggregation weighting.
	Aggregator fl.AggregatorConfig
	// ReadTimeout bounds each blocking read from an edge connection
	// (0 disables). It must cover an edge's heartbeat interval.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply transmission (0 disables).
	WriteTimeout time.Duration
	// MaxMessageBytes caps a single decoded edge message (0 disables).
	MaxMessageBytes int64
	// EdgeLeaseDuration declares an edge dead after this much silence:
	// it is removed from the shard map (its clients re-home to the
	// survivors) and its last filter snapshot is queued as a handoff to
	// every surviving edge (0 disables failover).
	EdgeLeaseDuration time.Duration
	// CheckpointPath, when non-empty, makes the root durable: the global
	// model, per-edge batch watermarks, retained filter snapshots, queued
	// handoffs and the root filter's own state are written atomically
	// during aggregation and on Close, and NewRoot restores from an
	// existing snapshot so a restarted root resumes without double-counting
	// replayed batches.
	CheckpointPath string
	// CheckpointEvery writes a snapshot after every N applied batches
	// (<= 0 selects 1). Only meaningful with CheckpointPath.
	CheckpointEvery int
	// Obsv, when non-nil, attaches the observability layer: per-edge
	// labeled counters for applied/replayed batches and a live-edge gauge.
	Obsv *obsv.Hub
}

// Validate checks the configuration.
func (c *RootConfig) Validate() error {
	if len(c.InitialParams) == 0 {
		return errors.New("topology: RootConfig: empty InitialParams")
	}
	if c.Rounds < 1 {
		return fmt.Errorf("topology: RootConfig: Rounds = %d, need >= 1", c.Rounds)
	}
	if c.StalenessLimit < 0 {
		return fmt.Errorf("topology: RootConfig: StalenessLimit = %d, need >= 0", c.StalenessLimit)
	}
	if c.ReadTimeout < 0 || c.WriteTimeout < 0 || c.EdgeLeaseDuration < 0 {
		return errors.New("topology: RootConfig: negative timeout")
	}
	if c.MaxMessageBytes < 0 {
		return fmt.Errorf("topology: RootConfig: MaxMessageBytes = %d, need >= 0", c.MaxMessageBytes)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("topology: RootConfig: CheckpointEvery = %d, need >= 0", c.CheckpointEvery)
	}
	return nil
}

// RootStats summarizes a root deployment.
type RootStats struct {
	// Rounds is the number of batches applied (each advances the global
	// model version by one).
	Rounds int
	// BatchesApplied and BatchesReplayed count first-time applications
	// versus idempotent replays answered with a bare ack; BatchesLost
	// counts batch ids skipped by forward gaps — batches an edge committed
	// but could never deliver (shed while partitioned, or dropped across a
	// checkpoint-less root restart).
	BatchesApplied, BatchesReplayed, BatchesLost int
	// UpdatesReceived counts updates arriving in edge batches; Accepted,
	// Deferred and Rejected count the root filter's decisions on them.
	UpdatesReceived, Accepted, Deferred, Rejected int
	// DroppedStale counts deferred updates discarded for exceeding the
	// staleness limit; DroppedMalformed counts updates whose delta did not
	// match the global model dimension or held a NaN or Inf.
	DroppedStale, DroppedMalformed int
	// EdgesConnected counts distinct edge ids that completed a Hello;
	// EdgeReconnects counts Hellos from already-known edges.
	EdgesConnected, EdgeReconnects int
	// ExpiredEdgeLeases counts edges declared dead by the lease sweeper.
	ExpiredEdgeLeases int
	// HandoffsQueued counts filter snapshots queued for surviving edges
	// when an edge died; HandoffsDelivered counts the ones that reached a
	// successor. HandoffsOrphaned counts snapshots of edges that died with
	// no live survivor — they are parked and adopted (re-queued) by the
	// next edge to Hello.
	HandoffsQueued, HandoffsDelivered, HandoffsOrphaned int
	// Heartbeats, NacksSent, HandlerPanics, Checkpoints and
	// OversizeDropped mirror their transport.ServerStats counterparts for
	// the edge-facing protocol.
	Heartbeats, NacksSent, HandlerPanics, Checkpoints, OversizeDropped int
	// FencedNacks counts requests refused with NackFenced because the
	// sender carried a fencing epoch above this root's — proof a newer
	// primary was promoted and this root must demote (internal/replica).
	FencedNacks int
}

// edgeState is the root's durable view of one edge aggregator. An edge
// outlives its connections: watermark, retained filter snapshot and queued
// handoffs persist across reconnects (and, via the checkpoint, across root
// restarts).
type edgeState struct {
	id          int
	clientAddr  string
	lastApplied uint64
	lastSeen    time.Time
	live        bool
	conn        net.Conn
	// filterState is the edge's latest filter snapshot (handoff blob),
	// retained from its batches; handoffs are dead peers' snapshots queued
	// for delivery to this edge.
	filterState []byte
	handoffs    [][]byte
}

// Root is the top tier of a two-tier deployment: it accepts edge
// aggregator connections, applies their batches exactly once, maintains
// the fleet-wide model and shard map, and orchestrates failover. Create
// with NewRoot, start with Serve, wait on Done.
type Root struct {
	cfg RootConfig
	// engine runs the round itself (fl.Engine: filter, combine, commit);
	// applyBatch supplies the batch and the locking around it.
	engine *fl.Engine

	mu       sync.Mutex
	global   []float64
	version  int
	finished bool
	restored bool
	// closed is set when Close or Fence begins; from then on no batch is
	// applied and no new edge connection is served. held is set on a
	// standby (HoldUntilPromoted) and cleared by PromoteEpoch; while it is
	// set no edge connection is served either.
	closed bool
	held   bool
	fenced bool
	// epoch is the fencing epoch this root serves under; peers is the
	// static root peer list relayed to edges (internal/replica). Both are
	// zero-valued on an unreplicated root.
	epoch        fence.Epoch
	peers        []string
	peersVersion int
	stats        RootStats
	edges        map[int]*edgeState
	shard        transport.ShardMap
	// deferred holds the updates the root filter postponed; they join the
	// next applied batch. Only its queue half is used: edge batches never
	// pass through Add, so nothing is dropped on arrival and the goal is
	// moot.
	deferred *fl.Buffer
	// orphans holds filter snapshots of edges that died while no live
	// survivor existed; they are adopted by the next edge to Hello so a
	// total partition never loses learned filter state.
	orphans [][]byte
	// core owns the listener, the live edge connections, the accept loop,
	// the edge-lease sweeper and the network teardown.
	core *transport.Acceptor

	// roundSlot serializes batch application (filter + combine + commit)
	// and checkpoint capture; it is a channel semaphore rather than a
	// mutex so no lock is ever held across the filter, the combiner or
	// checkpoint file I/O.
	roundSlot chan struct{}

	// onCommit, when set (before Serve), receives one replication log
	// record per applied batch, called while the round slot is held so
	// records are emitted in strict version order. replBase is the
	// filter's opaque state the next record's delta is diffed against
	// (see fl.StateDiffer); it is only touched under the round slot.
	onCommit func(*transport.ReplRecord)
	replBase any

	done     chan struct{}
	doneOnce sync.Once
}

// NewRoot builds a root server. filter nil selects pass-through (the root
// then trusts the edges' filtering entirely); combiner nil selects the
// weighted mean. With a CheckpointPath, existing state is restored before
// serving.
func NewRoot(cfg RootConfig, filter fl.Filter, combiner fl.Combiner) (*Root, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	deferred, err := fl.NewBuffer(1, cfg.StalenessLimit)
	if err != nil {
		return nil, err
	}
	r := &Root{
		cfg:       cfg,
		engine:    fl.NewEngine(filter, combiner, cfg.Aggregator),
		deferred:  deferred,
		global:    vecmath.Clone(cfg.InitialParams),
		edges:     make(map[int]*edgeState),
		roundSlot: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	r.core = transport.NewAcceptor(r.done, r.handle, r.notePanic)
	if cfg.EdgeLeaseDuration > 0 {
		r.core.Every(cfg.EdgeLeaseDuration/4, "edge lease sweep", r.evictExpiredEdges)
	}
	if cfg.CheckpointPath != "" {
		if err := r.restoreFromCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Serve accepts edge connections on lis until the configured rounds
// complete or Close is called; a Serve after Close returns at once.
func (r *Root) Serve(lis net.Listener) error { return r.core.Serve(lis) }

// ListenAndServe listens on addr and calls Serve.
func (r *Root) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("topology: listen: %w", err)
	}
	return r.Serve(lis)
}

// Addr returns the listener address (empty before Serve).
func (r *Root) Addr() string { return r.core.Addr() }

// Done is closed when the configured rounds have completed.
func (r *Root) Done() <-chan struct{} { return r.done }

// Version returns the current global model version.
func (r *Root) Version() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// FinalParams returns a copy of the current global parameters.
func (r *Root) FinalParams() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return vecmath.Clone(r.global)
}

// Stats returns the lifetime counters.
func (r *Root) Stats() RootStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Restored reports whether NewRoot resumed from an existing checkpoint.
func (r *Root) Restored() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}

// ShardMap returns a copy of the current shard map.
func (r *Root) ShardMap() transport.ShardMap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return *r.shard.Clone()
}

// Health reports the root's lifecycle state for /healthz.
func (r *Root) Health() obsv.Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return obsv.Health{Finished: r.finished, Restored: r.restored, Rounds: r.version}
}

// closeDone unblocks Done waiters exactly once.
func (r *Root) closeDone() {
	r.doneOnce.Do(func() { close(r.done) })
}

// Close stops the root. From the moment it begins, no further batch is
// applied: the in-flight one still commits, but a handler queued behind it
// drops its connection without replying, so no edge is acked for work the
// final checkpoint does not hold. With a CheckpointPath, Close then waits
// for the in-flight batch to commit and writes that checkpoint. Last it
// tears down the listener and every edge connection.
//
// Close fires Done but does NOT mark the deployment finished: edges are
// never told Done, so an edge caught mid-reply sees its connection drop
// and treats the root as partitioned, and a root shut down for
// maintenance does not terminate the fleet's uplinks. Idempotent: a
// second Close, or one after Fence, writes no checkpoint and returns nil.
func (r *Root) Close() error {
	r.mu.Lock()
	r.closeDone()
	alreadyClosed := r.closed
	r.closed = true
	r.mu.Unlock()

	if !alreadyClosed && r.cfg.CheckpointPath != "" {
		// Holding the round slot guarantees the filter is quiescent and the
		// snapshot includes the last committed batch.
		r.roundSlot <- struct{}{}
		r.writeCheckpoint()
		<-r.roundSlot
	}
	return r.core.Close()
}

// notePanic counts a panic the core recovered in HandlerPanics.
func (r *Root) notePanic() {
	r.mu.Lock()
	r.stats.HandlerPanics++
	r.mu.Unlock()
}

// handle drives one edge connection: a Hello, then a strict request-reply
// loop over batches and heartbeats.
//
// The core closes the connection on return and isolates a panic to it. A
// closing or held root serves no new connection: the edge reads EOF and
// rotates to its next peer.
func (r *Root) handle(conn net.Conn) {
	r.mu.Lock()
	refuse := r.closed || r.held
	r.mu.Unlock()
	if refuse {
		return
	}

	// Acceptor side: the edge's first bytes negotiate gob or binary.
	uc := transport.AcceptUpstreamConn(conn, r.cfg.MaxMessageBytes, r.cfg.ReadTimeout, r.cfg.WriteTimeout)
	first, err := uc.ReadEdge()
	if err != nil || first.Hello == nil {
		if err != nil && uc.Oversize() {
			r.mu.Lock()
			r.stats.OversizeDropped++
			r.mu.Unlock()
		}
		return
	}
	if nack := r.fenceCheck(first.Epoch); nack != nil {
		_ = uc.WriteRoot(nack)
		r.Fence()
		return
	}
	// sentShard tracks the shard-map version this connection has been
	// sent; -1 forces a push in the Hello reply. sentPeers does the same
	// for the root peer list.
	sentShard := -1
	sentPeers := -1
	es, reply := r.admitEdge(first.Hello, conn)
	if es == nil {
		_ = uc.WriteRoot(reply)
		return
	}
	defer r.releaseEdge(es, conn)
	if !r.sendReply(uc, es, reply, &sentShard, &sentPeers) {
		return
	}

	for {
		msg, err := uc.ReadEdge()
		if err != nil {
			if uc.Oversize() {
				r.mu.Lock()
				r.stats.OversizeDropped++
				r.mu.Unlock()
			}
			return
		}
		if nack := r.fenceCheck(msg.Epoch); nack != nil {
			_ = uc.WriteRoot(nack)
			r.Fence()
			return
		}
		var reply *transport.RootMsg
		switch {
		case msg.Hello != nil:
			// A mid-stream re-Hello refreshes the registration (an edge
			// restarted behind a connection that never dropped).
			var es2 *edgeState
			es2, reply = r.admitEdge(msg.Hello, conn)
			if es2 == nil {
				_ = uc.WriteRoot(reply)
				return
			}
			es = es2
		case msg.Batch != nil:
			if reply = r.applyBatch(es, msg.Batch); reply == nil {
				return // the root is closing: drop the connection unanswered
			}
		case msg.Heartbeat:
			reply = r.heartbeat(es)
		default:
			continue
		}
		if !r.sendReply(uc, es, reply, &sentShard, &sentPeers) {
			return
		}
		if reply.Nack != 0 || reply.Done || reply.Goodbye {
			return
		}
	}
}

// sendReply decorates a reply with the root's fencing epoch and any
// pending shard-map, peer-list or handoff push for this edge, then writes
// it. An undelivered handoff is re-queued so a broken write cannot lose a
// dead peer's filter state.
func (r *Root) sendReply(uc *transport.UpstreamConn, es *edgeState, reply *transport.RootMsg, sentShard, sentPeers *int) bool {
	var handoff []byte
	r.mu.Lock()
	reply.Epoch = r.epoch.Load()
	if *sentShard != r.shard.Version && len(r.shard.Edges) > 0 {
		reply.Shards = r.shard.Clone()
		*sentShard = r.shard.Version
	}
	if *sentPeers != r.peersVersion && len(r.peers) > 0 {
		reply.Peers = append([]string(nil), r.peers...)
		reply.PeersVersion = r.peersVersion
		*sentPeers = r.peersVersion
	}
	if reply.Nack == 0 && len(es.handoffs) > 0 {
		handoff = es.handoffs[0]
		es.handoffs = es.handoffs[1:]
		reply.Handoff = handoff
	}
	r.mu.Unlock()

	if err := uc.WriteRoot(reply); err != nil {
		if handoff != nil {
			r.mu.Lock()
			es.handoffs = append([][]byte{handoff}, es.handoffs...)
			r.mu.Unlock()
		}
		return false
	}
	if handoff != nil {
		r.mu.Lock()
		r.stats.HandoffsDelivered++
		r.mu.Unlock()
	}
	return true
}

// admitEdge validates a Hello and registers (or refreshes) the edge. It
// returns a nil edgeState with a Nack reply when the edge is refused.
func (r *Root) admitEdge(h *transport.EdgeHello, conn net.Conn) (*edgeState, *transport.RootMsg) {
	var stale net.Conn
	r.mu.Lock()
	if h.EdgeID < 0 || h.ClientAddr == "" || (h.ModelDim != 0 && h.ModelDim != len(r.global)) {
		r.stats.NacksSent++
		r.mu.Unlock()
		return nil, &transport.RootMsg{Nack: transport.NackMalformed}
	}
	es, known := r.edges[h.EdgeID]
	if !known {
		es = &edgeState{id: h.EdgeID}
		r.edges[h.EdgeID] = es
		r.stats.EdgesConnected++
	} else {
		r.stats.EdgeReconnects++
	}
	if es.conn != nil && es.conn != conn {
		// A replacement connection supersedes the old one; closing it makes
		// the stale handler exit instead of racing replies.
		stale = es.conn
	}
	es.conn = conn
	es.lastSeen = time.Now()
	addrChanged := es.clientAddr != h.ClientAddr
	es.clientAddr = h.ClientAddr
	if !es.live || addrChanged {
		es.live = true
		r.rebuildShardLocked()
	}
	if len(r.orphans) > 0 {
		// Orphaned snapshots (edges that died with no live survivor) are
		// adopted by the first edge to come back.
		es.handoffs = append(es.handoffs, r.orphans...)
		r.stats.HandoffsQueued += len(r.orphans)
		r.orphans = nil
	}
	reply := &transport.RootMsg{
		Task: &transport.Task{Version: r.version, Params: vecmath.Clone(r.global)},
		Ack:  es.lastApplied,
		Done: r.finished,
	}
	r.noteEdgesLiveLocked()
	r.mu.Unlock()

	if stale != nil {
		_ = stale.Close()
	}
	return es, reply
}

// releaseEdge detaches a closing connection from its edge session. The
// session itself — watermark, snapshots, liveness — survives; only the
// lease sweeper (or Close) declares an edge dead.
func (r *Root) releaseEdge(es *edgeState, conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if es.conn == conn {
		es.conn = nil
	}
}

// heartbeat renews an edge's lease.
func (r *Root) heartbeat(es *edgeState) *transport.RootMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Heartbeats++
	es.lastSeen = time.Now()
	if r.finished {
		return &transport.RootMsg{Pong: true, Ack: es.lastApplied, Done: true}
	}
	return &transport.RootMsg{Pong: true, Ack: es.lastApplied}
}

// applyBatch applies one edge batch exactly once: ids at or below the
// watermark are answered with a bare ack, anything above it runs a
// filter+aggregate round and advances the watermark (skipped ids are
// accounted as lost). The whole decision runs while holding the round
// slot so two connections replaying the same id cannot both observe the
// pre-apply watermark. It returns nil, applying and acking nothing, once
// Close or Fence has begun.
func (r *Root) applyBatch(es *edgeState, b *transport.BatchMsg) *transport.RootMsg {
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	es.lastSeen = time.Now()
	r.stats.UpdatesReceived += len(b.Updates)
	if b.BatchID <= es.lastApplied {
		// Idempotent replay after a link flap or root restart: the batch
		// was already applied, acknowledge without touching the model.
		r.stats.BatchesReplayed++
		reply := &transport.RootMsg{
			Task: &transport.Task{Version: r.version, Params: vecmath.Clone(r.global)},
			Ack:  es.lastApplied,
			Done: r.finished,
		}
		r.noteBatch(es.id, "replayed")
		r.mu.Unlock()
		return reply
	}
	if gap := b.BatchID - es.lastApplied - 1; gap > 0 {
		// A forward gap means batches between the watermark and this id are
		// gone for good: the edge shed them while partitioned, or this root
		// restarted without the watermark. Refusing cannot bring them back —
		// accept the batch and account for the loss. (Duplicates are
		// impossible: anything at or below the watermark was already
		// answered as a replay above.)
		r.stats.BatchesLost += int(gap)
	}
	if r.finished {
		reply := &transport.RootMsg{Ack: es.lastApplied, Done: true}
		r.mu.Unlock()
		return reply
	}
	// Retain the edge's filter snapshot for a future handoff before
	// filtering, so even a fully-rejected batch refreshes it.
	if len(b.FilterState) > 0 {
		es.filterState = b.FilterState
	}
	batch := r.deferred.Drain()
	dim := len(r.global)
	for _, u := range b.Updates {
		if u == nil || len(u.Delta) != dim || !vecmath.AllFinite(u.Delta) {
			r.stats.DroppedMalformed++
			continue
		}
		batch = append(batch, u)
	}
	version := r.version
	r.mu.Unlock()

	// The decide step runs outside r.mu (it is O(batch · dim)); the round
	// slot keeps rounds strictly ordered and the filter quiescent.
	rd := r.engine.Decide(batch, version)

	r.mu.Lock()
	r.version = r.engine.Commit(&rd, r.global, r.deferred)
	es.lastApplied = b.BatchID
	r.stats.Rounds = r.version
	r.stats.BatchesApplied++
	r.stats.Accepted += len(rd.Accepted)
	r.stats.Deferred += len(rd.Deferred)
	r.stats.Rejected += len(rd.Rejected)
	r.stats.DroppedStale += rd.DroppedStale
	if r.version >= r.cfg.Rounds && !r.finished {
		r.finished = true
		r.closeDone()
	}
	reply := &transport.RootMsg{
		Task: &transport.Task{Version: r.version, Params: vecmath.Clone(r.global)},
		Ack:  es.lastApplied,
		Done: r.finished,
	}
	every := r.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	checkpointDue := r.cfg.CheckpointPath != "" && (r.finished || r.version%every == 0)
	var rec *transport.ReplRecord
	if r.onCommit != nil {
		rec = r.buildReplRecord(es, b, rd.Delta, len(rd.Accepted), len(rd.Deferred), len(rd.Rejected))
	}
	r.noteBatch(es.id, "applied")
	r.mu.Unlock()

	r.engine.Observe(&rd)
	if rd.Panics > 0 {
		// The one place a round's recovered filter, combiner and observer
		// panics are counted.
		r.mu.Lock()
		r.stats.HandlerPanics += rd.Panics
		r.mu.Unlock()
	}
	if rec != nil {
		// Still holding the round slot: records reach the replication
		// stream in strict version order, and the filter is quiescent for
		// the delta snapshot.
		rec.FilterState, rec.FilterFull = r.filterReplState()
		r.onCommit(rec)
	}
	if checkpointDue {
		r.writeCheckpoint()
	}
	return reply
}

// buildReplRecord assembles the replication record for one applied
// batch; r.mu must be held. The record owns deep copies of everything it
// carries: it outlives the lock and crosses the replication stream to
// another goroutine (and usually another process).
//
//afl:hotpath
func (r *Root) buildReplRecord(es *edgeState, b *transport.BatchMsg, delta []float64, accepted, deferred, rejected int) *transport.ReplRecord {
	//lint:ignore hotalloc the record must own its payload: it escapes to the replication stream, so a fresh struct and a deep-copied delta are the contract (arena design in DESIGN.md §14)
	return &transport.ReplRecord{
		Seq:          uint64(r.version),
		Epoch:        r.epoch.Load(),
		EdgeID:       es.id,
		BatchID:      b.BatchID,
		EdgeAddr:     es.clientAddr,
		ShardVersion: r.shard.Version,
		//lint:ignore hotalloc the delta is cloned because the caller's buffer is reused next round; the record's copy is the durable one
		Delta:    vecmath.Clone(delta),
		Accepted: accepted,
		Deferred: deferred,
		Rejected: rejected,
	}
}

// rebuildShardLocked recomputes the shard map from the live edges and
// bumps its version. Callers hold r.mu.
func (r *Root) rebuildShardLocked() {
	entries := make([]transport.ShardEntry, 0, len(r.edges))
	for _, es := range r.edges {
		if es.live {
			entries = append(entries, transport.ShardEntry{EdgeID: es.id, Addr: es.clientAddr})
		}
	}
	r.shard.Edges = entries
	r.shard.Normalize()
	r.shard.Version++
}

// evictExpiredEdges is one tick of the edge-lease sweeper (every
// EdgeLeaseDuration/4 while Serve runs, see NewRoot): it declares silent
// edges dead, so they leave the shard map (clients re-home to the
// survivors) and their retained filter snapshot is queued as a handoff to
// every surviving edge.
func (r *Root) evictExpiredEdges(now time.Time) {
	var toClose []net.Conn
	r.mu.Lock()
	// Phase one: mark every expired edge dead, so a snapshot is never
	// queued onto a peer that expired in the same sweep (the edges map
	// iterates in random order).
	var evicted []*edgeState
	changed := false
	for _, es := range r.edges {
		if !es.live || now.Sub(es.lastSeen) <= r.cfg.EdgeLeaseDuration {
			continue
		}
		es.live = false
		r.stats.ExpiredEdgeLeases++
		changed = true
		evicted = append(evicted, es)
		if es.conn != nil {
			toClose = append(toClose, es.conn)
			es.conn = nil
		}
	}
	// Phase two: hand each dead edge's snapshot to the survivors. The dead
	// edge's clients scatter across every survivor (clientID modulo live
	// edges changes for all of them), so each survivor inherits the
	// learned group estimates. With no survivor at all the snapshot is
	// parked as an orphan for the next edge to Hello — a total partition
	// must not lose filter state.
	for _, es := range evicted {
		if len(es.filterState) == 0 {
			continue
		}
		queued := false
		for _, peer := range r.edges {
			if peer.live && peer.id != es.id {
				peer.handoffs = append(peer.handoffs, es.filterState)
				r.stats.HandoffsQueued++
				queued = true
			}
		}
		if !queued {
			r.orphans = append(r.orphans, es.filterState)
			r.stats.HandoffsOrphaned++
		}
	}
	if changed {
		r.rebuildShardLocked()
		r.noteEdgesLiveLocked()
	}
	r.mu.Unlock()
	for _, conn := range toClose {
		_ = conn.Close()
	}
}

// noteBatch bumps the per-edge labeled batch counter.
func (r *Root) noteBatch(edgeID int, outcome string) {
	if r.cfg.Obsv == nil {
		return
	}
	name := "afl_root_batches_" + outcome + "_total{edge=" + strconv.Quote(strconv.Itoa(edgeID)) + "}"
	r.cfg.Obsv.Registry.Counter(name).Inc()
}

// noteEdgesLiveLocked mirrors the live-edge count into the registry.
// Callers hold r.mu.
func (r *Root) noteEdgesLiveLocked() {
	if r.cfg.Obsv == nil {
		return
	}
	r.cfg.Obsv.Registry.Gauge("afl_root_edges_live").Set(float64(len(r.shard.Edges)))
}

// rootCkpt is the root's durable state, serialized through the
// internal/checkpoint container. The per-edge watermarks are the piece
// that makes restarts idempotent: an edge replaying batches the previous
// incarnation already applied is answered with a bare ack.
type rootCkpt struct {
	Global       []float64
	Version      int
	Stats        RootStats
	ShardVersion int
	Edges        []edgeCkpt
	Deferred     []*fl.Update
	Orphans      [][]byte
	FilterName   string
	FilterState  []byte
	// Epoch is the fencing epoch (internal/replica). Persisting it is
	// what makes fencing survive restarts: a promoted standby that
	// crashes and comes back must not serve under a pre-promotion epoch.
	Epoch uint64
}

type edgeCkpt struct {
	ID          int
	ClientAddr  string
	LastApplied uint64
	FilterState []byte
	Handoffs    [][]byte
}

// captureCkpt assembles the root's durable state. The caller must hold
// the round slot (the filter must be quiescent); no lock is held across
// the filter snapshot.
func (r *Root) captureCkpt() rootCkpt {
	r.mu.Lock()
	ck := rootCkpt{
		Global:       vecmath.Clone(r.global),
		Version:      r.version,
		Stats:        r.stats,
		ShardVersion: r.shard.Version,
		FilterName:   r.engine.Filter().Name(),
		Epoch:        r.epoch.Load(),
	}
	ck.Deferred = r.deferred.Snapshot().Updates
	ck.Orphans = r.orphans
	for _, es := range r.edges {
		ck.Edges = append(ck.Edges, edgeCkpt{
			ID:          es.id,
			ClientAddr:  es.clientAddr,
			LastApplied: es.lastApplied,
			FilterState: es.filterState,
			Handoffs:    es.handoffs,
		})
	}
	r.mu.Unlock()

	if sf, ok := r.engine.Filter().(fl.StateSnapshotter); ok {
		state, err := sf.SnapshotState()
		if err != nil {
			log.Printf("topology: root filter snapshot failed: %v", err)
		} else {
			ck.FilterState = state
		}
	}
	return ck
}

// writeCheckpoint captures and persists the root state. The caller must
// hold the round slot; no lock is held across the file write. A failure
// is logged here, so a caller that can carry on may drop the error.
func (r *Root) writeCheckpoint() error {
	ck := r.captureCkpt()
	if err := checkpoint.Save(r.cfg.CheckpointPath, &ck); err != nil {
		log.Printf("topology: root checkpoint failed: %v", err)
		return err
	}
	r.mu.Lock()
	r.stats.Checkpoints++
	r.mu.Unlock()
	return nil
}

// restoreFromCheckpoint loads an existing snapshot into a freshly built
// root. A missing file means a fresh deployment; anything else fails
// NewRoot loudly rather than restoring partial state. Restored edges come
// back not-live (they must re-Hello), but keep their watermarks, retained
// filter snapshots and queued handoffs.
func (r *Root) restoreFromCheckpoint(path string) error {
	var ck rootCkpt
	err := checkpoint.Load(path, &ck)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("topology: restore root from %s: %w", path, err)
	}
	if err := r.adoptCkpt(&ck, "restore root from "+path); err != nil {
		return err
	}
	r.mu.Lock()
	r.restored = true
	r.mu.Unlock()
	return nil
}

// adoptCkpt validates a decoded checkpoint and replaces the root's state
// with it — the shared tail of the startup restore and a standby's
// snapshot install. It is all-or-nothing up to the filter restore: the
// filter is only touched after every structural validation passed. The
// caller must guarantee filter quiescence (NewRoot before serving, or
// the round slot held).
func (r *Root) adoptCkpt(ck *rootCkpt, where string) error {
	if len(ck.Global) != len(r.cfg.InitialParams) {
		return fmt.Errorf("topology: %s: checkpoint holds a %d-parameter model, config expects %d",
			where, len(ck.Global), len(r.cfg.InitialParams))
	}
	if ck.Version < 0 {
		return fmt.Errorf("topology: %s: negative version %d", where, ck.Version)
	}
	if ck.FilterName != r.engine.Filter().Name() {
		return fmt.Errorf("topology: %s: checkpoint written by filter %q, root runs %q",
			where, ck.FilterName, r.engine.Filter().Name())
	}
	if len(ck.FilterState) > 0 {
		sf, ok := r.engine.Filter().(fl.StateSnapshotter)
		if !ok {
			return fmt.Errorf("topology: %s: checkpoint carries filter state but filter %q cannot restore it",
				where, r.engine.Filter().Name())
		}
		if err := sf.RestoreState(ck.FilterState); err != nil {
			return fmt.Errorf("topology: %s: %w", where, err)
		}
	}
	r.mu.Lock()
	r.global = vecmath.Clone(ck.Global)
	r.version = ck.Version
	r.stats = ck.Stats
	r.shard.Version = ck.ShardVersion
	r.deferred.Restore(fl.BufferState{Updates: ck.Deferred})
	r.orphans = ck.Orphans
	r.epoch.Raise(ck.Epoch)
	r.edges = make(map[int]*edgeState, len(ck.Edges))
	for _, ec := range ck.Edges {
		r.edges[ec.ID] = &edgeState{
			id:          ec.ID,
			clientAddr:  ec.ClientAddr,
			lastApplied: ec.LastApplied,
			filterState: ec.FilterState,
			handoffs:    ec.Handoffs,
		}
	}
	finished := r.version >= r.cfg.Rounds
	if finished {
		r.finished = true
	}
	r.mu.Unlock()
	if finished {
		r.closeDone()
	}
	return nil
}
