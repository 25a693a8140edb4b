package topology

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/transport"
)

// serveRoot serves an already-constructed root on loopback (startRoot's
// serving half) — replication tests need the gap to call SetOnCommit or
// ApplyRecord before the root accepts its first edge.
func serveRoot(t *testing.T, root *Root) string {
	t.Helper()
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
	return lis.Addr().String()
}

// TestFencedEdgeRequestDemotesRoot is the fencing invariant from the edge
// side: an edge that has seen a newer primary epoch gets NackFenced (with
// the stale root's own epoch for diagnostics) and the root demotes —
// stops serving and fires Done — instead of split-braining.
func TestFencedEdgeRequestDemotesRoot(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 4}, nil)
	edge := dialRootT(t, addr)

	reply := edge.roundTrip(&transport.EdgeMsg{
		Hello: &transport.EdgeHello{EdgeID: 1, ModelDim: rootTestDim, ClientAddr: "127.0.0.1:1", NextBatch: 1},
		Epoch: 7,
	})
	if reply.Nack != transport.NackFenced {
		t.Fatalf("nack = %v, want NackFenced", reply.Nack)
	}
	if reply.Epoch != 0 {
		t.Errorf("fenced reply carries epoch %d, want the stale root's 0", reply.Epoch)
	}
	// The reply goes out before the root fences itself (fencing closes
	// the connection it travels on), so wait for Done before asking.
	select {
	case <-root.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("fenced root never fired Done")
	}
	if !root.Fenced() {
		t.Error("root did not demote after proof of a newer epoch")
	}
	st := root.Stats()
	if st.FencedNacks != 1 {
		t.Errorf("FencedNacks = %d, want 1", st.FencedNacks)
	}
	if st.BatchesApplied != 0 {
		t.Errorf("fenced root applied %d batches", st.BatchesApplied)
	}
}

// TestEqualEpochAdmitted: fencing only rejects strictly newer epochs — an
// edge at the root's own epoch is normal traffic.
func TestEqualEpochAdmitted(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 4}, nil)
	if err := root.PromoteEpoch(2); err != nil {
		t.Fatal(err)
	}
	edge := dialRootT(t, addr)
	reply := edge.roundTrip(&transport.EdgeMsg{
		Hello: &transport.EdgeHello{EdgeID: 1, ModelDim: rootTestDim, ClientAddr: "127.0.0.1:1", NextBatch: 1},
		Epoch: 2,
	})
	if reply.Nack != 0 {
		t.Fatalf("equal-epoch hello refused: %v", reply.Nack)
	}
	if reply.Epoch != 2 {
		t.Errorf("reply epoch = %d, want 2 (edges adopt the root's epoch)", reply.Epoch)
	}
	if root.Fenced() {
		t.Error("root fenced itself on an equal epoch")
	}
}

// TestPromoteEpochPersists: the promotion epoch must survive a root
// restart via the checkpoint — a promoted root that crashes cannot come
// back believing in its pre-promotion epoch. Epochs only move forward.
func TestPromoteEpochPersists(t *testing.T) {
	cfg := RootConfig{
		InitialParams:  make([]float64, rootTestDim),
		Rounds:         4,
		CheckpointPath: filepath.Join(t.TempDir(), "root.ckpt"),
	}
	root, err := NewRoot(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.PromoteEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := root.PromoteEpoch(3); err == nil {
		t.Error("PromoteEpoch accepted a non-advancing epoch")
	}
	if err := root.PromoteEpoch(1); err == nil {
		t.Error("PromoteEpoch accepted a backwards epoch")
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	reborn, err := NewRoot(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if got := reborn.Epoch(); got != 3 {
		t.Fatalf("restarted root at epoch %d, want 3 from checkpoint", got)
	}
}

// TestObserveEpochOnlyRaises: adopting a proven epoch moves forward and
// never back (a stale heartbeat cannot regress a standby's fence).
func TestObserveEpochOnlyRaises(t *testing.T) {
	root, err := NewRoot(RootConfig{InitialParams: make([]float64, rootTestDim), Rounds: 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	root.ObserveEpoch(5)
	if got := root.Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
	root.ObserveEpoch(2)
	if got := root.Epoch(); got != 5 {
		t.Fatalf("epoch regressed to %d", got)
	}
}

// TestPeersRelayedThroughReplies: the static replica peer list reaches
// edges piggybacked on replies, once per version — the same cursor
// discipline as shard-map pushes.
func TestPeersRelayedThroughReplies(t *testing.T) {
	root, addr := startRoot(t, RootConfig{Rounds: 8}, nil)
	root.SetPeers([]string{"10.0.0.1:4000", "10.0.0.2:4000"})

	edge := dialRootT(t, addr)
	reply := edge.hello(1, 1)
	if len(reply.Peers) != 2 || reply.Peers[0] != "10.0.0.1:4000" {
		t.Fatalf("hello reply peers = %v, want the configured pair", reply.Peers)
	}
	if reply.PeersVersion != 1 {
		t.Errorf("peers version = %d, want 1", reply.PeersVersion)
	}

	reply = edge.roundTrip(&transport.EdgeMsg{Heartbeat: true})
	if reply.Peers != nil {
		t.Errorf("unchanged peer list re-pushed: %v", reply.Peers)
	}

	root.SetPeers([]string{"10.0.0.3:4000"})
	reply = edge.roundTrip(&transport.EdgeMsg{Heartbeat: true})
	if len(reply.Peers) != 1 || reply.Peers[0] != "10.0.0.3:4000" {
		t.Fatalf("updated peer list not pushed: %v", reply.Peers)
	}
	if reply.PeersVersion != 2 {
		t.Errorf("peers version = %d, want 2", reply.PeersVersion)
	}
}

// recordTap collects onCommit replication records.
type recordTap struct {
	mu   sync.Mutex
	recs []*transport.ReplRecord
}

func (rt *recordTap) add(rec *transport.ReplRecord) {
	rt.mu.Lock()
	rt.recs = append(rt.recs, rec)
	rt.mu.Unlock()
}

func (rt *recordTap) all() []*transport.ReplRecord {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*transport.ReplRecord(nil), rt.recs...)
}

// TestReplicationLogMirrorsRoot drives a primary through real edge
// batches and replays its snapshot + log into a standby: the standby
// lands on the same version, model and watermarks, refuses out-of-order
// records, and answers a replayed batch idempotently after promotion —
// the zero-double-count guarantee across failover.
func TestReplicationLogMirrorsRoot(t *testing.T) {
	primary, err := NewRoot(RootConfig{InitialParams: make([]float64, rootTestDim), Rounds: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tap := &recordTap{}
	primary.SetOnCommit(tap.add)
	addr := serveRoot(t, primary)

	edge := dialRootT(t, addr)
	if reply := edge.hello(7, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}
	// Batch 1 lands before the snapshot, batches 2 and 3 after — the
	// standby must cover the first from the blob and the rest from the log.
	if reply := edge.batch(1, testUpdate(0, 0.5)); reply.Nack != 0 {
		t.Fatalf("batch 1 refused: %v", reply.Nack)
	}
	blob, blobVersion, err := primary.SnapshotBlob()
	if err != nil {
		t.Fatal(err)
	}
	if blobVersion != 1 {
		t.Fatalf("snapshot at version %d, want 1", blobVersion)
	}
	edge.batch(2, testUpdate(1, 0.25))
	edge.batch(3, testUpdate(2, -0.125))

	recs := tap.all()
	if len(recs) != 3 {
		t.Fatalf("onCommit fired %d times, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d — log not in strict version order", i, rec.Seq)
		}
		if rec.EdgeID != 7 || rec.BatchID != uint64(i+1) {
			t.Errorf("record %d: edge %d batch %d", i, rec.EdgeID, rec.BatchID)
		}
	}

	standby, err := NewRoot(RootConfig{InitialParams: make([]float64, rootTestDim), Rounds: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Records below the snapshot version are the attach race the stream
	// layer skips; out-of-order and repeated records must be refused so
	// the caller resyncs instead of diverging.
	if got, err := standby.InstallSnapshot(blob); err != nil || got != 1 {
		t.Fatalf("InstallSnapshot = (%d, %v), want (1, nil)", got, err)
	}
	if err := standby.ApplyRecord(recs[2]); err == nil {
		t.Fatal("gap record (seq 3 at version 1) accepted")
	}
	if err := standby.ApplyRecord(recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := standby.ApplyRecord(recs[1]); err == nil {
		t.Fatal("repeated record accepted")
	}
	if err := standby.ApplyRecord(recs[2]); err != nil {
		t.Fatal(err)
	}
	if standby.Version() != primary.Version() {
		t.Fatalf("standby at version %d, primary at %d", standby.Version(), primary.Version())
	}

	// Promote the standby and replay the edge's last batch against it: the
	// mirrored watermark answers with a bare ack, not a fourth application.
	if err := standby.PromoteEpoch(1); err != nil {
		t.Fatal(err)
	}
	standbyAddr := serveRoot(t, standby)
	rehomed := dialRootT(t, standbyAddr)
	if reply := rehomed.hello(7, 4); reply.Nack != 0 {
		t.Fatalf("re-homed hello refused: %v", reply.Nack)
	}
	reply := rehomed.batch(3, testUpdate(2, -0.125))
	if reply.Nack != 0 {
		t.Fatalf("replayed batch refused: %v", reply.Nack)
	}
	if reply.Ack != 3 {
		t.Errorf("replay ack = %d, want 3", reply.Ack)
	}
	st := standby.Stats()
	if st.BatchesApplied != 3 || st.BatchesReplayed != 1 {
		t.Errorf("standby applied %d replayed %d, want 3 and 1 — a double count would corrupt the model",
			st.BatchesApplied, st.BatchesReplayed)
	}
	if reply.Epoch != 1 {
		t.Errorf("promoted root replies at epoch %d, want 1", reply.Epoch)
	}
}

// TestEpochNeverRegressesUnderConcurrency: every epoch adoption path
// (peer observation, record replay) funnels through the raise-only
// helper, so a storm of stale observations racing a record stream can
// never move the fence backwards. Under -race this also pins that every
// adoption happens with the root lock held.
func TestEpochNeverRegressesUnderConcurrency(t *testing.T) {
	root, err := NewRoot(RootConfig{InitialParams: make([]float64, rootTestDim), Rounds: 64}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := root.Epoch()
			if cur < last {
				t.Errorf("epoch regressed from %d to %d", last, cur)
				return
			}
			last = cur
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Mostly stale values, maximum 99: only raises may land.
				root.ObserveEpoch(uint64((i*7 + g) % 100))
			}
		}(g)
	}
	for seq := 1; seq <= 32; seq++ {
		rec := &transport.ReplRecord{Seq: uint64(seq), EdgeID: 1, BatchID: uint64(seq), Epoch: uint64(seq % 5)}
		if err := root.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := root.Epoch(); got != 99 {
		t.Fatalf("epoch = %d, want 99 (the maximum observed)", got)
	}
}
