package topology

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

func testModelConfig() model.Config {
	return model.Config{Arch: model.ArchLinear, InputDim: 8, NumClasses: 3, Seed: 1}
}

func testTrainer() fl.TrainerConfig {
	return fl.TrainerConfig{
		Epochs: 1, BatchSize: 16,
		Optim: optim.Config{Name: optim.SGDName, LR: 0.05, Momentum: 0.9},
	}
}

func testData(t *testing.T, n int) []*dataset.Dataset {
	t.Helper()
	train, _, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "t", NumClasses: 3, Dim: 8,
		TrainSize: 1200, TestSize: 60,
		Separation: 4, Noise: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.PartitionIIDFixedSize(train, n, 60, randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func initialParams(t *testing.T) []float64 {
	t.Helper()
	m, err := model.New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.NumParams())
	m.Params(p)
	return p
}

func asyncFilter(t *testing.T) *core.AsyncFilter {
	t.Helper()
	af, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return af
}

// startEdge serves an edge on loopback, returning it and its
// client-facing address. The caller owns shutdown (edges are killed
// mid-test); Close is idempotent enough to also hang on cleanup.
func startEdge(t *testing.T, cfg EdgeConfig, filter fl.Filter) (*Edge, string) {
	t.Helper()
	edge, err := NewEdge(cfg, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = edge.Serve(lis) }()
	t.Cleanup(func() { _ = edge.Close() })
	return edge, lis.Addr().String()
}

// edgeServerConfig builds the client-facing config for one edge: local
// rounds effectively unbounded (the root decides when the deployment is
// done), small aggregation goal for fast rounds.
func edgeServerConfig(t *testing.T, goal int) transport.ServerConfig {
	return transport.ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: goal,
		StalenessLimit:  10,
		Rounds:          100000,
	}
}

// startClients launches n clients, the first `malicious` of them running
// the gradient-deviation attack, homed at addrs[i % len(addrs)]. The
// returned wait function blocks until every client exits and returns the
// clients for counter inspection.
func startClients(t *testing.T, n, malicious int, addrs []string) ([]*transport.Client, func()) {
	t.Helper()
	parts := testData(t, n)
	clients := make([]*transport.Client, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := transport.ClientConfig{
			ID:             i,
			Data:           parts[i],
			Model:          testModelConfig(),
			Trainer:        testTrainer(),
			Seed:           int64(100 + i),
			MaxRetries:     25,
			RetryBaseDelay: 5 * time.Millisecond,
			RetryMaxDelay:  100 * time.Millisecond,
		}
		if i < malicious {
			cfg.Attack = attack.Config{Name: attack.GDName, Scale: 2}
		}
		client, err := transport.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = client
		addr := addrs[i%len(addrs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Servers are killed and closed throughout these tests; client
			// errors at teardown are expected.
			_ = client.Run(addr)
		}()
	}
	return clients, wg.Wait
}

// pollUntil waits for cond, failing the test when it does not hold within
// 15 seconds.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitRootVersion(t *testing.T, root *Root, v int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for root.Version() < v {
		if time.Now().After(deadline) {
			t.Fatalf("root stuck at version %d < %d; stats = %+v", root.Version(), v, root.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTwoTierEdgeCrashFailover is the end-to-end failover scenario: two
// edges feed a root, one edge is killed mid-deployment, its clients
// re-home to the survivor, the survivor inherits the dead edge's filter
// state via a checkpoint-format handoff, and the root keeps committing
// rounds throughout.
func TestTwoTierEdgeCrashFailover(t *testing.T) {
	// Rounds is effectively unbounded: the deployment must still be
	// running while the lease sweeper, handoff delivery and client
	// re-homing play out, so the test polls for failover evidence instead
	// of waiting for completion.
	root, rootAddr := startRoot(t, RootConfig{
		InitialParams:     initialParams(t),
		Rounds:            100000,
		StalenessLimit:    10,
		EdgeLeaseDuration: 200 * time.Millisecond,
	}, nil)

	uplink := func(id int) EdgeConfig {
		return EdgeConfig{
			EdgeID:            id,
			RootAddr:          rootAddr,
			Server:            edgeServerConfig(t, 2),
			HeartbeatEvery:    50 * time.Millisecond,
			RetryBaseDelay:    10 * time.Millisecond,
			RetryMaxDelay:     100 * time.Millisecond,
			MaxPendingBatches: 4,
			Seed:              int64(id),
		}
	}
	edge0, addr0 := startEdge(t, uplink(0), asyncFilter(t))
	edge1, addr1 := startEdge(t, uplink(1), asyncFilter(t))

	clients, wait := startClients(t, 8, 0, []string{addr0, addr1})

	// Let the deployment make real progress through both edges, then
	// crash edge 0 mid-round.
	waitRootVersion(t, root, 3, 15*time.Second)

	// An orphan can only re-home if its edge told it where else to go, so
	// the crash waits until one of edge 0's clients holds the two-edge
	// shard list: the root has published it, edge 0 has finished relaying
	// it (two further acks mean the uplink goroutine has left the reply
	// that carried it), and five more updates from four lockstep clients
	// mean one of them has since been answered twice.
	var mapVersion int
	pollUntil(t, "both edges in the shard map", func() bool {
		m := root.ShardMap()
		mapVersion = m.Version
		return len(m.Edges) == 2
	})
	pollUntil(t, "edge 0 to see the two-edge shard map", func() bool {
		edge0.mu.Lock()
		defer edge0.mu.Unlock()
		return edge0.shardSeen >= mapVersion
	})
	acked := edge0.Stats().BatchesAcked
	pollUntil(t, "edge 0 to finish relaying the shard map", func() bool {
		return edge0.Stats().BatchesAcked >= acked+2
	})
	received := edge0.Server().Stats().UpdatesReceived
	pollUntil(t, "an edge 0 client to receive the shard list", func() bool {
		return edge0.Server().Stats().UpdatesReceived >= received+5
	})
	if err := edge0.Close(); err != nil {
		t.Logf("edge 0 close: %v", err)
	}

	// Failover evidence, polled while the deployment keeps running: the
	// root declares edge 0 dead and delivers its filter snapshot, and the
	// survivor merges it.
	deadline := time.Now().Add(15 * time.Second)
	for {
		rs, es := root.Stats(), edge1.Stats()
		if rs.ExpiredEdgeLeases >= 1 && rs.HandoffsQueued >= 1 &&
			rs.HandoffsDelivered >= 1 && es.HandoffsMerged >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover incomplete: root = %+v, edge1 = %+v", rs, es)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if es := edge1.Stats(); es.HandoffErrors != 0 {
		t.Errorf("handoff errors: %+v", es)
	}
	if m := root.ShardMap(); len(m.Edges) != 1 || m.Edges[0].EdgeID != 1 {
		t.Errorf("post-crash shard map = %+v, want survivor only", m.Edges)
	}

	// The deployment converges through the survivor: the global version
	// keeps advancing after failover.
	waitRootVersion(t, root, root.Version()+5, 15*time.Second)

	// The survivor's own four clients can carry the root those five
	// versions before an orphan's retry back-off has expired, so wait for
	// what is asserted below: an orphan saying Hello to the survivor.
	pollUntil(t, "an orphaned client to reach the survivor", func() bool {
		return edge1.Server().Stats().ClientsConnected > 4
	})

	// Shut the survivor down so the clients give up and exit; client
	// counters are only safe to read after every client goroutine returns.
	_ = edge1.Close()
	_ = root.Close()
	wait()
	rehomes := 0
	for _, c := range clients {
		rehomes += c.Rehomes
	}
	if rehomes == 0 {
		t.Error("no client re-homed after the edge crash")
	}
}

// TestTwoTierDegradedMode verifies partition tolerance: an edge whose
// root disappears keeps serving clients, reports degraded (not draining)
// health, buffers its batches, and reconciles when the root returns.
func TestTwoTierDegradedMode(t *testing.T) {
	// A root on a fixed port so it can "return" at the same address.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rootAddr := lis.Addr().String()
	// The first root must not finish before the partition is induced, so
	// its round budget is effectively unbounded.
	root1, err := NewRoot(RootConfig{
		InitialParams:  initialParams(t),
		Rounds:         100000,
		StalenessLimit: 10,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = root1.Serve(lis) }()

	edge, edgeAddr := startEdge(t, EdgeConfig{
		EdgeID:            0,
		RootAddr:          rootAddr,
		Server:            edgeServerConfig(t, 2),
		HeartbeatEvery:    20 * time.Millisecond,
		RetryBaseDelay:    10 * time.Millisecond,
		RetryMaxDelay:     50 * time.Millisecond,
		MaxPendingBatches: 3,
	}, nil)
	_, wait := startClients(t, 4, 0, []string{edgeAddr})

	waitRootVersion(t, root1, 2, 15*time.Second)
	if h := edge.Health(); h.Degraded {
		t.Error("healthy edge reports degraded")
	}
	// Partition: the root vanishes mid-deployment.
	_ = root1.Close()

	deadline := time.Now().Add(10 * time.Second)
	for !edge.Health().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("edge never entered degraded mode after losing its root")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The edge keeps serving clients while partitioned: local rounds
	// continue and the bounded buffer absorbs (and eventually sheds) them.
	// Committing 5 more rounds against a 3-batch buffer forces at least
	// one oldest-first shed.
	sv := edge.Server().Version()
	degradedDeadline := time.Now().Add(15 * time.Second)
	for edge.Server().Version() < sv+5 {
		if time.Now().After(degradedDeadline) {
			t.Fatalf("edge stopped committing local rounds while degraded: %d -> %d",
				sv, edge.Server().Version())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reheal: a root restart at the same address. The edge reconnects and
	// replays its buffered batches.
	lis2, err := net.Listen("tcp", rootAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", rootAddr, err)
	}
	// The replacement root has lost all state (no checkpoint): the edge's
	// surviving buffer reconciles into it, with the shed batches showing
	// up as an accounted forward gap rather than a livelock.
	root2, err := NewRoot(RootConfig{
		InitialParams:  initialParams(t),
		Rounds:         8,
		StalenessLimit: 10,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = root2.Serve(lis2) }()
	t.Cleanup(func() { _ = root2.Close() })

	select {
	case <-root2.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("rehealed root did not finish; root = %+v, edge = %+v", root2.Stats(), edge.Stats())
	}
	if es := edge.Stats(); es.BatchesShed == 0 {
		t.Errorf("degraded buffer never shed with MaxPendingBatches=3: %+v", es)
	}
	if rs := root2.Stats(); rs.BatchesLost == 0 {
		t.Errorf("stateless root restart reported no lost batches: %+v", rs)
	}
	// Degraded clears once the link re-establishes; after the root says
	// Done the uplink retires without re-entering degraded mode.
	healDeadline := time.Now().Add(5 * time.Second)
	for edge.Health().Degraded {
		if time.Now().After(healDeadline) {
			t.Fatal("edge still degraded after reheal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = edge.Close()
	wait()
}
