package transport

import (
	"fmt"
	"sort"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// This file defines the edge<->root wire protocol of the two-tier
// topology (internal/topology). It lives in transport so the upstream
// envelope shares the hardening the client protocol gets: the
// byte-budget limitReader, the fuzz harness (fuzz_upstream_test.go) and
// the envelope-shape discipline — flat structs with pointer/bool fields,
// because gob emits one typedef per struct type and deterministic fault
// schedules count I/O operations, so envelope shape stability matters.
//
// The protocol is strict request-reply, like the client protocol: the
// edge sends EdgeMsg, the root answers each with exactly one RootMsg.
// That keeps a single writer per connection side with no extra locking.
//
//	edge -> root: Hello, then (Batch | Heartbeat)*
//	root -> edge: one RootMsg per EdgeMsg
//
// Reliability is layered on top with idempotent batch ids: every batch an
// edge commits gets the next value of a monotone per-edge counter
// (starting at 1), the root acknowledges the highest id it has applied,
// and after a reconnect the edge resends everything unacknowledged. The
// root keeps a high-watermark per edge and answers replayed ids with a
// bare ack, so a batch is applied exactly once no matter how often the
// link flaps — even across a root restart, because the watermarks ride in
// the root's checkpoint.

// EdgeHello introduces an edge aggregator to the root.
type EdgeHello struct {
	// EdgeID identifies the edge (unique per deployment, >= 0).
	EdgeID int
	// ModelDim is the edge's model parameter dimension; a mismatch with
	// the root's global model is refused at Hello time.
	ModelDim int
	// ClientAddr is the edge's client-facing listen address — the address
	// the root publishes in the shard map so clients can be re-homed to
	// this edge.
	ClientAddr string
	// NextBatch is the id the edge's next new batch will carry. It lets
	// the root detect an edge that lost its own state (NextBatch below the
	// root's watermark is answered with the watermark so the edge can
	// resynchronize its counter).
	NextBatch uint64
}

// BatchMsg carries one locally-filtered, locally-committed batch of
// updates from an edge to the root.
type BatchMsg struct {
	// BatchID is the per-edge monotone batch id (1-based).
	BatchID uint64
	// EdgeVersion is the edge's local model version when this batch
	// committed, for diagnostics.
	EdgeVersion int
	// Updates are the filter-accepted updates of one edge round. Staleness
	// is the edge-local staleness at commit time.
	Updates []*fl.Update
	// FilterState, when non-nil, is the edge filter's detection state at
	// commit time in the internal/checkpoint container format. The root
	// retains the latest snapshot per edge and hands it to the successor
	// edge when this edge dies, so re-homed clients keep their learned
	// group estimates.
	FilterState []byte
}

// EdgeMsg is the edge->root envelope. Flat on purpose; see the package
// note above.
type EdgeMsg struct {
	Hello *EdgeHello
	Batch *BatchMsg
	// Heartbeat renews the edge's lease at the root while no batches are
	// flowing; the root answers with Pong (and piggybacks shard-map or
	// handoff pushes).
	Heartbeat bool
	// Epoch is the highest fencing epoch this edge has observed
	// (internal/replica). It rides on every request so a resurrected old
	// primary — whose epoch is lower — learns it has been superseded and
	// answers NackFenced instead of applying state a newer primary owns.
	// 0 means the edge has never seen a replicated root.
	Epoch uint64
}

// RootMsg is the root->edge envelope: exactly one per EdgeMsg.
type RootMsg struct {
	// Task, when non-nil, carries the root's current global model; the
	// edge adopts it so its clients train against the fleet-wide state.
	Task *Task
	// Ack is the highest batch id the root has applied for this edge
	// (0 = none yet). The edge drops acknowledged batches from its resend
	// buffer.
	Ack uint64
	// Shards, when non-nil, is the current shard map push. The edge
	// forwards the client-facing addresses to its own clients.
	Shards *ShardMap
	// Handoff, when non-nil, is a dead edge's last filter snapshot in the
	// internal/checkpoint container format; the receiving edge merges it
	// into its running filter so re-homed clients inherit their group
	// moving averages.
	Handoff []byte
	// Nack, when non-zero, reports a refused Hello (dimension mismatch)
	// or batch.
	Nack NackCode
	// Pong acknowledges a Heartbeat.
	Pong bool
	// Done signals the deployment completed its rounds.
	Done bool
	// Goodbye signals the root is draining.
	Goodbye bool
	// Epoch is the root's current fencing epoch. Edges adopt the highest
	// epoch they see and carry it back on every request (EdgeMsg.Epoch).
	Epoch uint64
	// Peers, together with PeersVersion, relays the static root peer
	// list — the edge-facing addresses of every replica in the root's
	// replication group — through the same piggyback mechanism as the
	// shard map. Edges rotate through it to find the promoted standby
	// after their primary dies. Nil when the root runs unreplicated.
	Peers        []string
	PeersVersion int
}

// ShardEntry maps one edge to its client-facing address.
type ShardEntry struct {
	EdgeID int
	Addr   string
}

// ShardMap assigns clients to edges. Entries are kept sorted by EdgeID so
// every party — root, edges, clients — computes the same assignment from
// the same map version.
type ShardMap struct {
	// Version increments on every membership change; receivers ignore
	// maps older than what they already hold.
	Version int
	// Edges are the live edges, sorted by EdgeID.
	Edges []ShardEntry
}

// Clone returns a deep copy.
func (m *ShardMap) Clone() *ShardMap {
	if m == nil {
		return nil
	}
	return &ShardMap{Version: m.Version, Edges: append([]ShardEntry(nil), m.Edges...)}
}

// Normalize sorts the entries by EdgeID (the canonical order every
// assignment computation assumes).
func (m *ShardMap) Normalize() {
	sort.Slice(m.Edges, func(i, j int) bool { return m.Edges[i].EdgeID < m.Edges[j].EdgeID })
}

// Addrs returns the client-facing addresses in canonical (EdgeID) order —
// the form pushed to clients in ServerMsg.Shards.
func (m *ShardMap) Addrs() []string {
	addrs := make([]string, len(m.Edges))
	for i, e := range m.Edges {
		addrs[i] = e.Addr
	}
	return addrs
}

// HomeIndex returns the index of the edge a client is assigned to:
// clientID modulo the number of live edges. Negative client ids hash by
// magnitude. Returns -1 for an empty map.
func (m *ShardMap) HomeIndex(clientID int) int {
	if m == nil || len(m.Edges) == 0 {
		return -1
	}
	if clientID < 0 {
		clientID = -clientID
	}
	return clientID % len(m.Edges)
}

// HomeEdge returns the ShardEntry a client is assigned to and whether the
// map is non-empty.
func (m *ShardMap) HomeEdge(clientID int) (ShardEntry, bool) {
	i := m.HomeIndex(clientID)
	if i < 0 {
		return ShardEntry{}, false
	}
	return m.Edges[i], true
}

// Validate checks a received shard map before it replaces a held one.
func (m *ShardMap) Validate() error {
	if m.Version < 0 {
		return fmt.Errorf("transport: ShardMap: Version = %d, need >= 0", m.Version)
	}
	seen := make(map[int]bool, len(m.Edges))
	for _, e := range m.Edges {
		if e.EdgeID < 0 {
			return fmt.Errorf("transport: ShardMap: EdgeID = %d, need >= 0", e.EdgeID)
		}
		if seen[e.EdgeID] {
			return fmt.Errorf("transport: ShardMap: duplicate EdgeID %d", e.EdgeID)
		}
		seen[e.EdgeID] = true
		if e.Addr == "" {
			return fmt.Errorf("transport: ShardMap: edge %d has empty Addr", e.EdgeID)
		}
	}
	return nil
}

// AdoptGlobal replaces the server's global parameters with a newer model
// published by an upstream aggregator, without advancing the local round
// counter: edge rounds, not root pushes, drive an edge's version. The
// params are copied on ingest. Updates trained against the pre-adoption
// params keep their BaseVersion — edge-local staleness bookkeeping is
// unaffected by adoption.
func (s *Server) AdoptGlobal(params []float64) error {
	if len(params) == 0 {
		return fmt.Errorf("transport: AdoptGlobal: empty params")
	}
	clone := append([]float64(nil), params...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(clone) != len(s.global) {
		return fmt.Errorf("transport: AdoptGlobal: %d params, model has %d", len(clone), len(s.global))
	}
	s.global = clone
	s.publishLocked()
	return nil
}

// WithFilterQuiescent runs fn while no aggregation round is in flight,
// holding the round slot so no round starts until fn returns. fn runs
// without s.mu held (it may be slow: filter-state merges are O(groups ·
// dim)); connection handlers keep flowing, only round commits wait. The
// hierarchical edge uses this to merge a handed-off filter state into the
// live filter without racing a Filter call.
func (s *Server) WithFilterQuiescent(fn func()) {
	s.mu.Lock()
	for s.aggregating {
		s.aggDone.Wait()
	}
	s.aggregating = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.aggregating = false
		s.aggDone.Broadcast()
		s.mu.Unlock()
	}()
	fn()
}

// Filter returns the server's filter. The filter is not safe for
// concurrent use with aggregation; callers needing to touch its state use
// WithFilterQuiescent.
func (s *Server) Filter() fl.Filter { return s.engine.Filter() }

// SetShardAddrs publishes a new client-facing shard address list. Every
// connected client receives the new list in its next task envelope;
// clients use it to re-home (clientID modulo list length) when their edge
// says Goodbye or stops answering. An empty list withdraws the push.
func (s *Server) SetShardAddrs(addrs []string) {
	clone := append([]string(nil), addrs...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardAddrs = clone
	s.shardVersion++
}

// shardPushLocked returns the shard list to piggyback on a reply when the
// handler's last-sent version is stale, updating the handler's cursor.
// Callers hold s.mu.
func (s *Server) shardPushLocked(sent *int) ([]string, int) {
	if *sent == s.shardVersion || len(s.shardAddrs) == 0 {
		return nil, 0
	}
	*sent = s.shardVersion
	return append([]string(nil), s.shardAddrs...), s.shardVersion
}

// BackoffDelay is the shared exponential-backoff-plus-jitter reconnect
// pacing: attempt n (1-based) sleeps base·2^(n-1) capped at max, scaled by
// a jitter in [0.5, 1.5) so a fleet dropped by the same fault does not
// reconnect in lockstep. Both the client and the edge->root uplink
// (internal/topology) draw their delays from it.
func BackoffDelay(jitter float64, base, max time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration(float64(d) * jitter)
}
