package topology

import (
	"math"
	"net"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/transport"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

const rootTestDim = 4

// scriptedEdge drives a root through the raw upstream protocol so tests
// control every message and observe every reply.
type scriptedEdge struct {
	t  *testing.T
	uc *transport.UpstreamConn
}

func dialRootT(t *testing.T, addr string) *scriptedEdge {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial root: %v", err)
	}
	uc := transport.NewUpstreamConn(conn, 0, 5*time.Second, 5*time.Second)
	t.Cleanup(func() { uc.Close() })
	return &scriptedEdge{t: t, uc: uc}
}

func (s *scriptedEdge) roundTrip(msg *transport.EdgeMsg) *transport.RootMsg {
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

func (s *scriptedEdge) hello(edgeID int, nextBatch uint64) *transport.RootMsg {
	s.t.Helper()
	return s.roundTrip(&transport.EdgeMsg{Hello: &transport.EdgeHello{
		EdgeID:     edgeID,
		ModelDim:   rootTestDim,
		ClientAddr: "127.0.0.1:1",
		NextBatch:  nextBatch,
	}})
}

func (s *scriptedEdge) batch(id uint64, updates ...*fl.Update) *transport.RootMsg {
	s.t.Helper()
	return s.roundTrip(&transport.EdgeMsg{Batch: &transport.BatchMsg{BatchID: id, Updates: updates}})
}

// testUpdate builds a well-formed update for the root's model dimension.
func testUpdate(clientID int, v float64) *fl.Update {
	delta := make([]float64, rootTestDim)
	for i := range delta {
		delta[i] = v
	}
	return &fl.Update{ClientID: clientID, Delta: delta, NumSamples: 10}
}

// startRoot serves a root on loopback and tears it down with the test,
// returning the root and its dialable address.
func startRoot(t *testing.T, cfg RootConfig, filter fl.Filter) (*Root, string) {
	t.Helper()
	if cfg.InitialParams == nil {
		cfg.InitialParams = make([]float64, rootTestDim)
	}
	root, err := NewRoot(cfg, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- root.Serve(lis) }()
	t.Cleanup(func() {
		_ = root.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("root serve: %v", err)
		}
	})
	return root, lis.Addr().String()
}

func TestRootConfigValidation(t *testing.T) {
	base := RootConfig{InitialParams: []float64{1}, Rounds: 1}
	cases := []func(*RootConfig){
		func(c *RootConfig) { c.InitialParams = nil },
		func(c *RootConfig) { c.Rounds = 0 },
		func(c *RootConfig) { c.StalenessLimit = -1 },
		func(c *RootConfig) { c.EdgeLeaseDuration = -time.Second },
		func(c *RootConfig) { c.MaxMessageBytes = -1 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := NewRoot(cfg, nil, nil); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRootBatchLifecycle walks the happy path: hello, batches advancing
// the version, an idempotent replay, heartbeats, and Done at the
// configured rounds.
func TestRootBatchLifecycle(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 3}, nil)
	edge := dialRootT(t, addr)

	reply := edge.hello(0, 1)
	if reply.Nack != 0 || reply.Task == nil {
		t.Fatalf("hello reply = %+v, want task", reply)
	}
	if reply.Task.Version != 0 || reply.Ack != 0 {
		t.Errorf("hello: version %d ack %d, want 0, 0", reply.Task.Version, reply.Ack)
	}
	if reply.Shards == nil || len(reply.Shards.Edges) != 1 {
		t.Fatalf("hello reply shards = %+v, want one entry", reply.Shards)
	}

	reply = edge.batch(1, testUpdate(0, 0.1), testUpdate(1, 0.2))
	if reply.Nack != 0 || reply.Ack != 1 || reply.Task == nil || reply.Task.Version != 1 {
		t.Fatalf("batch 1 reply = %+v, want ack 1 version 1", reply)
	}
	if reply.Shards != nil {
		t.Error("shard map resent without a change")
	}

	// Replaying an applied id must ack without re-applying.
	reply = edge.batch(1, testUpdate(0, 0.1))
	if reply.Nack != 0 || reply.Ack != 1 {
		t.Fatalf("replay reply = %+v, want bare ack 1", reply)
	}
	if got := root.Version(); got != 1 {
		t.Errorf("version after replay = %d, want 1", got)
	}

	reply = edge.roundTrip(&transport.EdgeMsg{Heartbeat: true})
	if !reply.Pong || reply.Ack != 1 {
		t.Errorf("heartbeat reply = %+v, want pong ack 1", reply)
	}

	if reply = edge.batch(2, testUpdate(2, 0.1)); reply.Done {
		t.Error("done before final round")
	}
	reply = edge.batch(3, testUpdate(3, 0.1))
	if !reply.Done || reply.Ack != 3 {
		t.Fatalf("final reply = %+v, want done ack 3", reply)
	}
	select {
	case <-root.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("root did not finish")
	}

	stats := root.Stats()
	if stats.BatchesApplied != 3 || stats.BatchesReplayed != 1 {
		t.Errorf("applied %d replayed %d, want 3, 1", stats.BatchesApplied, stats.BatchesReplayed)
	}
	if stats.Heartbeats != 1 || stats.EdgesConnected != 1 {
		t.Errorf("heartbeats %d edges %d, want 1, 1", stats.Heartbeats, stats.EdgesConnected)
	}
}

// TestRootGapsAndBadHellos covers forward batch-id gaps, malformed
// hellos, and updates with the wrong dimension.
func TestRootGapsAndBadHellos(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 10}, nil)

	edge := dialRootT(t, addr)
	if reply := edge.hello(0, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}
	// A forward gap means the skipped batches are unrecoverable (shed
	// during a partition, or dropped across a root restart): the batch is
	// applied, the watermark jumps, and the loss is accounted.
	reply := edge.batch(5, testUpdate(0, 0.1))
	if reply.Nack != 0 || reply.Ack != 5 {
		t.Fatalf("gap reply = %+v, want applied with ack 5", reply)
	}
	if stats := root.Stats(); stats.BatchesLost != 4 {
		t.Errorf("BatchesLost = %d, want 4", stats.BatchesLost)
	}

	bad := dialRootT(t, addr)
	reply = bad.roundTrip(&transport.EdgeMsg{Hello: &transport.EdgeHello{EdgeID: -1, ClientAddr: "x"}})
	if reply.Nack != transport.NackMalformed {
		t.Fatalf("negative edge id admitted: %+v", reply)
	}

	dim := dialRootT(t, addr)
	reply = dim.roundTrip(&transport.EdgeMsg{Hello: &transport.EdgeHello{EdgeID: 2, ModelDim: rootTestDim + 1, ClientAddr: "x"}})
	if reply.Nack != transport.NackMalformed {
		t.Fatalf("dim-mismatched edge admitted: %+v", reply)
	}

	// A wrong-dimension update inside an otherwise valid batch is dropped,
	// not fatal.
	edge2 := dialRootT(t, addr)
	if reply := edge2.hello(3, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}
	short := &fl.Update{ClientID: 9, Delta: []float64{1}, NumSamples: 1}
	reply = edge2.roundTrip(&transport.EdgeMsg{Batch: &transport.BatchMsg{
		BatchID: 1, Updates: []*fl.Update{short, testUpdate(1, 0.1)},
	}})
	if reply.Nack != 0 || reply.Ack != 1 {
		t.Fatalf("mixed batch reply = %+v, want applied", reply)
	}
	if stats := root.Stats(); stats.DroppedMalformed != 1 {
		t.Errorf("DroppedMalformed = %d, want 1", stats.DroppedMalformed)
	}

	// So is an update holding a NaN or an Inf, and the model stays finite.
	for i, bad := range []float64{math.NaN(), math.Inf(-1)} {
		poisoned := testUpdate(10+i, 0.1)
		poisoned.Delta[1] = bad
		reply = edge2.roundTrip(&transport.EdgeMsg{Batch: &transport.BatchMsg{
			BatchID: uint64(2 + i), Updates: []*fl.Update{poisoned, testUpdate(1, 0.1)},
		}})
		if reply.Nack != 0 || reply.Task == nil || !vecmath.AllFinite(reply.Task.Params) {
			t.Fatalf("batch with a %v delta: reply = %+v, want applied with a finite model", bad, reply)
		}
	}
	if stats := root.Stats(); stats.DroppedMalformed != 3 {
		t.Errorf("DroppedMalformed = %d, want 3", stats.DroppedMalformed)
	}
}

// TestRootShardMapGrowsWithEdges verifies that a second edge's admission
// bumps the shard map version and that the new map is piggybacked on the
// first edge's next reply.
func TestRootShardMapGrowsWithEdges(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 10}, nil)

	a := dialRootT(t, addr)
	replyA := a.hello(0, 1)
	if replyA.Shards == nil || len(replyA.Shards.Edges) != 1 {
		t.Fatalf("edge 0 shards = %+v", replyA.Shards)
	}
	v1 := replyA.Shards.Version

	b := dialRootT(t, addr)
	replyB := b.hello(1, 1)
	if replyB.Shards == nil || len(replyB.Shards.Edges) != 2 {
		t.Fatalf("edge 1 shards = %+v, want two entries", replyB.Shards)
	}
	if replyB.Shards.Version <= v1 {
		t.Errorf("shard version %d not bumped past %d", replyB.Shards.Version, v1)
	}

	// Edge 0's next reply carries the grown map.
	reply := a.roundTrip(&transport.EdgeMsg{Heartbeat: true})
	if reply.Shards == nil || len(reply.Shards.Edges) != 2 {
		t.Fatalf("edge 0 not pushed the new map: %+v", reply.Shards)
	}
	if got := root.ShardMap(); len(got.Edges) != 2 {
		t.Errorf("root shard map has %d edges, want 2", len(got.Edges))
	}
}

// TestRootLeaseExpiryQueuesHandoff verifies failover: a silent edge is
// evicted, the shard map shrinks, and its retained filter state reaches
// the surviving edge as a checkpoint-container handoff.
func TestRootLeaseExpiryQueuesHandoff(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 100, EdgeLeaseDuration: 200 * time.Millisecond}, nil)

	dying := dialRootT(t, addr)
	if reply := dying.hello(0, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}
	state, err := encodeHandoff([]byte("group-averages"))
	if err != nil {
		t.Fatal(err)
	}
	reply := dying.roundTrip(&transport.EdgeMsg{Batch: &transport.BatchMsg{
		BatchID: 1, Updates: []*fl.Update{testUpdate(0, 0.1)}, FilterState: state,
	}})
	if reply.Nack != 0 {
		t.Fatalf("batch refused: %v", reply.Nack)
	}

	survivor := dialRootT(t, addr)
	if reply := survivor.hello(1, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}

	// Go silent on edge 0; keep edge 1's lease fresh until the sweeper
	// declares edge 0 dead.
	deadline := time.Now().Add(5 * time.Second)
	var got *transport.RootMsg
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no handoff delivered; stats = %+v", root.Stats())
		}
		got = survivor.roundTrip(&transport.EdgeMsg{Heartbeat: true})
		if len(got.Handoff) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	inner, err := decodeHandoff(got.Handoff)
	if err != nil {
		t.Fatalf("handoff not in checkpoint container: %v", err)
	}
	if string(inner) != "group-averages" {
		t.Errorf("handoff = %q, want retained filter state", inner)
	}
	if got.Shards == nil || len(got.Shards.Edges) != 1 || got.Shards.Edges[0].EdgeID != 1 {
		t.Errorf("post-eviction shards = %+v, want survivor only", got.Shards)
	}
	stats := root.Stats()
	if stats.ExpiredEdgeLeases != 1 || stats.HandoffsQueued != 1 || stats.HandoffsDelivered != 1 {
		t.Errorf("failover stats = %+v", stats)
	}
}

// TestRootOrphanedHandoffAdopted covers the total-partition corner: the
// last live edge dies, so its snapshot has no survivor to go to. The root
// parks it as an orphan and hands it to the next edge that Hellos.
func TestRootOrphanedHandoffAdopted(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 100, EdgeLeaseDuration: 150 * time.Millisecond}, nil)

	lonely := dialRootT(t, addr)
	if reply := lonely.hello(0, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}
	state, err := encodeHandoff([]byte("lonely-averages"))
	if err != nil {
		t.Fatal(err)
	}
	if reply := lonely.roundTrip(&transport.EdgeMsg{Batch: &transport.BatchMsg{
		BatchID: 1, Updates: []*fl.Update{testUpdate(0, 0.1)}, FilterState: state,
	}}); reply.Nack != 0 {
		t.Fatalf("batch refused: %v", reply.Nack)
	}

	// The only edge goes silent: its snapshot must be orphaned, not lost.
	deadline := time.Now().Add(5 * time.Second)
	for root.Stats().HandoffsOrphaned == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never orphaned: %+v", root.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if q := root.Stats().HandoffsQueued; q != 0 {
		t.Errorf("HandoffsQueued = %d before any successor exists", q)
	}

	// A brand-new edge adopts the orphan.
	successor := dialRootT(t, addr)
	reply := successor.hello(9, 1)
	if reply.Nack != 0 {
		t.Fatalf("successor hello refused: %v", reply.Nack)
	}
	handoff := reply.Handoff
	if len(handoff) == 0 {
		handoff = successor.roundTrip(&transport.EdgeMsg{Heartbeat: true}).Handoff
	}
	inner, err := decodeHandoff(handoff)
	if err != nil {
		t.Fatalf("adopted handoff: %v", err)
	}
	if string(inner) != "lonely-averages" {
		t.Errorf("adopted handoff = %q, want the dead edge's state", inner)
	}
	// The root counts a delivery once its write returns, which can be
	// after the edge has read the reply.
	deadline = time.Now().Add(5 * time.Second)
	for root.Stats().HandoffsDelivered == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stats := root.Stats()
	if stats.HandoffsOrphaned != 1 || stats.HandoffsQueued != 1 || stats.HandoffsDelivered != 1 {
		t.Errorf("orphan stats = %+v", stats)
	}
}
