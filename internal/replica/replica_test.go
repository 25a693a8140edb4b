package replica

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

const testDim = 4

// sedge drives a root through the raw edge protocol (the scripted-edge
// idiom from the topology tests, duplicated here because those helpers
// are package-internal).
type sedge struct {
	t  *testing.T
	uc *transport.UpstreamConn
}

func dialEdge(t *testing.T, addr string) *sedge {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial root: %v", err)
	}
	uc := transport.NewUpstreamConn(conn, 0, 5*time.Second, 5*time.Second)
	t.Cleanup(func() { uc.Close() })
	return &sedge{t: t, uc: uc}
}

func (s *sedge) roundTrip(msg *transport.EdgeMsg) *transport.RootMsg {
	s.t.Helper()
	if err := s.uc.WriteEdge(msg); err != nil {
		s.t.Fatalf("write edge msg: %v", err)
	}
	reply, err := s.uc.ReadRoot()
	if err != nil {
		s.t.Fatalf("read root reply: %v", err)
	}
	return reply
}

func (s *sedge) hello(edgeID int, nextBatch uint64) *transport.RootMsg {
	s.t.Helper()
	return s.roundTrip(&transport.EdgeMsg{Hello: &transport.EdgeHello{
		EdgeID:     edgeID,
		ModelDim:   testDim,
		ClientAddr: "127.0.0.1:1",
		NextBatch:  nextBatch,
	}})
}

func (s *sedge) batch(id uint64, updates ...*fl.Update) *transport.RootMsg {
	s.t.Helper()
	return s.roundTrip(&transport.EdgeMsg{Batch: &transport.BatchMsg{BatchID: id, Updates: updates}})
}

func testUpdate(clientID int, v float64) *fl.Update {
	delta := make([]float64, testDim)
	for i := range delta {
		delta[i] = v
	}
	return &fl.Update{ClientID: clientID, Delta: delta, NumSamples: 10}
}

func testRoot(t *testing.T, filter fl.Filter) *topology.Root {
	t.Helper()
	root, err := topology.NewRoot(topology.RootConfig{
		InitialParams: make([]float64, testDim),
		Rounds:        100000,
	}, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// startNode serves a node on a fresh edge listener, returning the node's
// edge-facing address. The caller owns Close (nodes are killed mid-test);
// cleanup closes again, which is idempotent.
func startNode(t *testing.T, n *Node) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = n.Serve(lis) }()
	t.Cleanup(func() { _ = n.Close() })
	return lis.Addr().String()
}

func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func newFilter(t *testing.T) *core.AsyncFilter {
	t.Helper()
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{NodeID: -1},
		{Lease: -time.Second},
		{Heartbeat: -time.Second},
		{Lease: time.Second, Heartbeat: 2 * time.Second},
		{MaxMessageBytes: -1},
		{QuorumSize: -1},
		// Unwinnable: 3 grants can never arrive in a group of 2.
		{QuorumSize: 3, VotePeers: []string{"127.0.0.1:1"}},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewNode(Config{}, nil); err == nil {
		t.Error("NewNode accepted a nil root")
	}
}

// TestMirrorPromoteAndReconcile is the deterministic failover walk: a
// standby attaches to a live primary, mirrors its commits record by
// record (filter deltas included), promotes when the primary dies, and
// answers the edge's replayed batch with a bare ack — plus the
// byte-comparability check: the standby's filter state equals a reference
// replay of the exact same snapshot/delta stream, byte for byte.
func TestMirrorPromoteAndReconcile(t *testing.T) {
	primaryFilter, standbyFilter := newFilter(t), newFilter(t)
	hub := obsv.NewHub(0)

	pRoot := testRoot(t, primaryFilter)
	pNode, err := NewNode(Config{
		NodeID:     0,
		ReplListen: "127.0.0.1:0",
		Peers:      []string{"127.0.0.1:9001", "127.0.0.1:9002"},
		Lease:      400 * time.Millisecond,
	}, pRoot)
	if err != nil {
		t.Fatal(err)
	}
	pAddr := startNode(t, pNode)
	if pNode.Role() != RolePrimary {
		t.Fatalf("no-upstream node started as %s", pNode.Role())
	}

	sRoot := testRoot(t, standbyFilter)
	sNode, err := NewNode(Config{
		NodeID:    1,
		Upstreams: []string{pNode.ReplAddr()},
		Peers:     []string{"127.0.0.1:9001", "127.0.0.1:9002"},
		Lease:     400 * time.Millisecond,
		Obsv:      hub,
	}, sRoot)
	if err != nil {
		t.Fatal(err)
	}
	sAddr := startNode(t, sNode)
	if sNode.Role() != RoleStandby {
		t.Fatalf("upstream-configured node started as %s", sNode.Role())
	}

	// Attach before the first batch so the standby takes the pure record
	// stream (no snapshot) — each commit must then arrive as one record.
	waitFor(t, 5*time.Second, "standby attach", func() bool {
		return pNode.Stats().StandbyAttaches >= 1
	})

	edge := dialEdge(t, pAddr)
	if reply := edge.hello(3, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}
	for b := uint64(1); b <= 3; b++ {
		if reply := edge.batch(b, testUpdate(int(b), 0.25)); reply.Nack != 0 || reply.Ack != b {
			t.Fatalf("batch %d: nack=%v ack=%d", b, reply.Nack, reply.Ack)
		}
	}
	// Wait on the counter asserted below: the apply loop bumps it after
	// ApplyRecord has already advanced the version.
	waitFor(t, 5*time.Second, "standby to mirror 3 records", func() bool {
		return sNode.Stats().RecordsApplied == 3
	})
	st := sNode.Stats()
	if v := sRoot.Version(); v != 3 {
		t.Errorf("standby at version %d after 3 records, want 3", v)
	}
	if st.SnapshotsInstalled != 0 {
		t.Errorf("pure stream attach installed %d snapshots", st.SnapshotsInstalled)
	}

	// Byte-comparability: replay the exact record stream the primary
	// emitted (held in its ring) into a reference filter. The standby
	// performed the identical restore/merge sequence, so its serialized
	// filter state must match byte for byte.
	pNode.mu.Lock()
	stream := append([]*transport.ReplRecord(nil), pNode.ring...)
	pNode.mu.Unlock()
	if len(stream) != 3 {
		t.Fatalf("primary ring holds %d records, want 3", len(stream))
	}
	ref := newFilter(t)
	for i, rec := range stream {
		if len(rec.FilterState) == 0 {
			t.Fatalf("record %d carries no filter state", i)
		}
		if rec.FilterFull {
			if err := ref.RestoreState(rec.FilterState); err != nil {
				t.Fatal(err)
			}
		} else if err := ref.MergeState(rec.FilterState); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := standbyFilter.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("promoted-side filter state is not byte-identical to the reference merge of the record stream")
	}

	// Kill the primary. The standby's lease expires, it promotes under
	// epoch 1, and starts serving edges on its own listener.
	killedAt := time.Now()
	if err := pNode.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "standby promotion", func() bool {
		return sNode.Role() == RolePrimary
	})
	if took := time.Since(killedAt); took > 4*400*time.Millisecond {
		t.Errorf("promotion took %v, want within a few leases of 400ms", took)
	}
	if got := sNode.Epoch(); got != 1 {
		t.Errorf("promoted epoch = %d, want 1", got)
	}
	ns := sNode.Stats()
	if ns.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", ns.Promotions)
	}
	if ns.RecordsLostOnPromote != 0 {
		t.Errorf("lost %d records on a fully-mirrored promotion", ns.RecordsLostOnPromote)
	}

	// Role/epoch surfaces: gauges and /healthz payload.
	if v := hub.Registry.Gauge("afl_replica_role").Value(); v != RolePrimary.gaugeValue() {
		t.Errorf("afl_replica_role = %v, want %v", v, RolePrimary.gaugeValue())
	}
	if v := hub.Registry.Gauge("afl_replica_epoch").Value(); v != 1 {
		t.Errorf("afl_replica_epoch = %v, want 1", v)
	}
	if h := sNode.Health(); h.Role != "primary" || h.Epoch != 1 {
		t.Errorf("health = role %q epoch %d, want primary/1", h.Role, h.Epoch)
	}

	// The edge re-homes and reconciles from its watermark: the replayed
	// batch gets a bare ack (never a second application), the next batch
	// applies normally, and the reply carries the promoted epoch.
	rehomed := dialEdge(t, sAddr)
	if reply := rehomed.hello(3, 4); reply.Nack != 0 {
		t.Fatalf("re-homed hello refused: %v", reply.Nack)
	}
	reply := rehomed.batch(3, testUpdate(3, 0.25))
	if reply.Nack != 0 || reply.Ack != 3 {
		t.Fatalf("replayed batch: nack=%v ack=%d, want bare ack 3", reply.Nack, reply.Ack)
	}
	if reply.Epoch != 1 {
		t.Errorf("promoted root replies at epoch %d, want 1", reply.Epoch)
	}
	reply = rehomed.batch(4, testUpdate(4, 0.5))
	if reply.Nack != 0 || reply.Ack != 4 {
		t.Fatalf("post-failover batch: nack=%v ack=%d", reply.Nack, reply.Ack)
	}
	rs := sRoot.Stats()
	if rs.BatchesApplied != 4 || rs.BatchesReplayed != 1 {
		t.Errorf("applied %d replayed %d, want 4 and 1 — a double count would corrupt the model",
			rs.BatchesApplied, rs.BatchesReplayed)
	}
}

// TestLateAttachFallsBackToSnapshot: a standby attaching behind a primary
// whose ring no longer covers its next seq is re-grounded from a full
// checkpoint snapshot, then streams on.
func TestLateAttachFallsBackToSnapshot(t *testing.T) {
	pRoot := testRoot(t, nil)
	pNode, err := NewNode(Config{
		NodeID:     0,
		ReplListen: "127.0.0.1:0",
		Lease:      time.Second,
		LogDepth:   1, // ring keeps only the newest record: any gap forces a snapshot
	}, pRoot)
	if err != nil {
		t.Fatal(err)
	}
	pAddr := startNode(t, pNode)

	edge := dialEdge(t, pAddr)
	edge.hello(1, 1)
	for b := uint64(1); b <= 5; b++ {
		edge.batch(b, testUpdate(int(b), 0.1))
	}

	sRoot := testRoot(t, nil)
	sNode, err := NewNode(Config{
		NodeID:    1,
		Upstreams: []string{pNode.ReplAddr()},
		Lease:     time.Minute, // never promote during this test
	}, sRoot)
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, sNode)

	waitFor(t, 5*time.Second, "snapshot install", func() bool {
		return sRoot.Version() == 5
	})
	st := sNode.Stats()
	if st.SnapshotsInstalled == 0 {
		t.Errorf("late attach never installed a snapshot: %+v", st)
	}
	// Post-snapshot commits stream as records.
	edge.batch(6, testUpdate(6, 0.1))
	waitFor(t, 5*time.Second, "post-snapshot record", func() bool {
		return sRoot.Version() == 6
	})
	if st := sNode.Stats(); st.RecordsApplied == 0 {
		t.Errorf("post-snapshot commit did not stream as a record: %+v", st)
	}
}

// TestReplicationLinkFaults runs the replication channel over a link that
// randomly resets, delays and drops writes: broken sessions burn uplink
// failures, every reattach resyncs from the ring or a snapshot, and the
// standby still converges to the primary's exact version.
func TestReplicationLinkFaults(t *testing.T) {
	pRoot := testRoot(t, nil)
	pNode, err := NewNode(Config{
		NodeID:     0,
		ReplListen: "127.0.0.1:0",
		Lease:      time.Second,
		Heartbeat:  20 * time.Millisecond,
	}, pRoot)
	if err != nil {
		t.Fatal(err)
	}
	pAddr := startNode(t, pNode)

	sRoot := testRoot(t, nil)
	sNode, err := NewNode(Config{
		NodeID:    1,
		Upstreams: []string{pNode.ReplAddr()},
		Lease:     time.Minute, // faults must trigger resyncs, not promotion
		Dial: transport.FaultDialer(transport.FaultConfig{
			Seed:          11,
			ResetProb:     0.05,
			DelayProb:     0.2,
			Delay:         2 * time.Millisecond,
			DropWriteProb: 0.02,
		}),
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	}, sRoot)
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, sNode)

	edge := dialEdge(t, pAddr)
	edge.hello(1, 1)
	for b := uint64(1); b <= 40; b++ {
		edge.batch(b, testUpdate(int(b%7), 0.05))
	}

	waitFor(t, 30*time.Second, "standby to converge through the faulty link", func() bool {
		return sRoot.Version() == 40
	})
	st := sNode.Stats()
	if st.UplinkFailures == 0 {
		t.Errorf("fault injection never broke a session: %+v", st)
	}
	if st.RecordsApplied == 0 && st.SnapshotsInstalled == 0 {
		t.Errorf("standby converged without mirroring anything: %+v", st)
	}
	if sNode.Role() != RoleStandby {
		t.Errorf("faulty link promoted the standby: %s", sNode.Role())
	}
}

// TestUnreachablePrimaryPromotesWithinLease: a standby that can never
// reach its primary still promotes one lease after starting — the lease
// clock starts at boot, not at the first heartbeat.
func TestUnreachablePrimaryPromotesWithinLease(t *testing.T) {
	lease := 200 * time.Millisecond
	sRoot := testRoot(t, nil)
	sNode, err := NewNode(Config{
		NodeID:    1,
		Upstreams: []string{"127.0.0.1:1"},
		Lease:     lease,
		Dial: func(string) (net.Conn, error) {
			return nil, errors.New("injected: unreachable")
		},
		RetryBaseDelay: 5 * time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	}, sRoot)
	if err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	addr := startNode(t, sNode)

	waitFor(t, 5*time.Second, "promotion", func() bool { return sNode.Role() == RolePrimary })
	if took := time.Since(started); took < lease {
		t.Errorf("promoted after %v, before the %v lease expired", took, lease)
	}
	if sNode.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", sNode.Epoch())
	}
	if st := sNode.Stats(); st.UplinkFailures == 0 {
		t.Errorf("unreachable upstream burned no uplink failures: %+v", st)
	}

	// The promoted node serves edges on the listener it was refusing on.
	edge := dialEdge(t, addr)
	if reply := edge.hello(1, 1); reply.Nack != 0 {
		t.Fatalf("promoted node refused an edge: %v", reply.Nack)
	}
}

// TestPromotionPersistFailureStandsDown: a lease-only promotion whose
// epoch cannot be persisted must not serve, and must not spin on fresh
// epochs either. The node stands down to standby and tries again a lease
// later, which succeeds once the checkpoint directory is back.
func TestPromotionPersistFailureStandsDown(t *testing.T) {
	lease := 100 * time.Millisecond
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sRoot, err := topology.NewRoot(topology.RootConfig{
		InitialParams:  make([]float64, testDim),
		Rounds:         100000,
		CheckpointPath: filepath.Join(dir, "root.ckpt"),
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	sNode, err := NewNode(Config{
		NodeID:    1,
		Upstreams: []string{"127.0.0.1:1"},
		Lease:     lease,
		Dial: func(string) (net.Conn, error) {
			return nil, errors.New("injected: unreachable")
		},
		RetryBaseDelay: 5 * time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	}, sRoot)
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, sNode)

	// A node that retried on the persist error would stay in
	// RolePromoting, raising the epoch on every pass, and never get here.
	waitFor(t, 5*time.Second, "stand-down after a failed persist", func() bool {
		return sNode.Role() == RoleStandby && sNode.Epoch() >= 1
	})
	if st := sNode.Stats(); st.Promotions != 0 {
		t.Fatalf("node counted a promotion whose epoch was never persisted: %+v", st)
	}

	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "promotion once the checkpoint is writable", func() bool {
		return sNode.Role() == RolePrimary
	})
	if st := sNode.Stats(); st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
}

// TestResurrectedPrimaryFencedByEdge is the fencing acceptance scenario:
// an old primary comes back from the dead at its stale epoch, and the
// first edge that has seen the promoted standby's epoch makes it refuse
// (NackFenced) and demote cleanly instead of split-braining.
func TestResurrectedPrimaryFencedByEdge(t *testing.T) {
	oldRoot := testRoot(t, nil)
	oldNode, err := NewNode(Config{NodeID: 0, ReplListen: "127.0.0.1:0", Lease: time.Second}, oldRoot)
	if err != nil {
		t.Fatal(err)
	}
	addr := startNode(t, oldNode)

	edge := dialEdge(t, addr)
	reply := edge.roundTrip(&transport.EdgeMsg{
		Hello: &transport.EdgeHello{EdgeID: 1, ModelDim: testDim, ClientAddr: "127.0.0.1:1", NextBatch: 1},
		Epoch: 2, // this edge has talked to the epoch-2 promoted standby
	})
	if reply.Nack != transport.NackFenced {
		t.Fatalf("resurrected primary answered %v, want NackFenced", reply.Nack)
	}
	// The root replies first and fences itself second; Done fires once it
	// has, so the role is read after that, not after the reply.
	select {
	case <-oldRoot.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("fenced primary never fired Done")
	}
	if oldNode.Role() != RoleFenced {
		t.Fatalf("resurrected primary role = %s, want fenced", oldNode.Role())
	}
	if rs := oldRoot.Stats(); rs.FencedNacks != 1 || rs.BatchesApplied != 0 {
		t.Errorf("fenced primary stats: %+v", rs)
	}
	if err := oldNode.Close(); err != nil {
		t.Errorf("fenced primary did not demote cleanly: %v", err)
	}
}

// TestStaleUpstreamFencedByStandby is the same invariant on the
// replication channel: a standby carrying a promoted epoch refuses to
// mirror a stale primary, and the stale primary demotes the moment the
// standby's hello proves the newer epoch exists.
func TestStaleUpstreamFencedByStandby(t *testing.T) {
	staleRoot := testRoot(t, nil)
	staleNode, err := NewNode(Config{NodeID: 0, ReplListen: "127.0.0.1:0", Lease: time.Second}, staleRoot)
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, staleNode)

	// The standby's root already holds epoch 3 — it mirrored a primary
	// that was promoted twice since the stale node last served.
	sRoot := testRoot(t, nil)
	if err := sRoot.PromoteEpoch(3); err != nil {
		t.Fatal(err)
	}
	sNode, err := NewNode(Config{
		NodeID:         1,
		Upstreams:      []string{staleNode.ReplAddr()},
		Lease:          400 * time.Millisecond,
		RetryBaseDelay: 5 * time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	}, sRoot)
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, sNode)

	waitFor(t, 5*time.Second, "stale primary to demote", func() bool {
		return staleNode.Role() == RoleFenced
	})
	if st := staleNode.Stats(); st.FencedNacksSent == 0 {
		t.Errorf("stale primary sent no fenced nack: %+v", st)
	}
	// The standby never adopts anything from the stale generation and,
	// with no live primary left, promotes itself ABOVE its own epoch.
	waitFor(t, 5*time.Second, "standby promotion", func() bool {
		return sNode.Role() == RolePrimary
	})
	if got := sNode.Epoch(); got != 4 {
		t.Errorf("promoted epoch = %d, want 4 (above the mirrored 3)", got)
	}
	if st := sNode.Stats(); st.FencedObserved == 0 {
		t.Errorf("standby never observed the stale upstream: %+v", st)
	}
	if v := sRoot.Version(); v != 0 {
		t.Errorf("standby mirrored %d records from a stale primary", v)
	}
}
