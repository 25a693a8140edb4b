package topology

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// maliciousDecisions counts, from decision trace records, the updates
// submitted by malicious clients (ids below `malicious`) and how many of
// them the filter rejected.
func maliciousDecisions(hubs []*obsv.Hub, malicious int) (rejected, seen int) {
	for _, hub := range hubs {
		for _, rec := range hub.Tracer.Last(0) {
			if rec.Kind != obsv.KindDecision || rec.ClientID >= malicious {
				continue
			}
			seen++
			if rec.Decision == obsv.DecisionReject {
				rejected++
			}
		}
	}
	return rejected, seen
}

// maliciousRejectRate is the fraction of the malicious clients' updates
// that the filter rejected.
func maliciousRejectRate(t *testing.T, hubs []*obsv.Hub, malicious int) float64 {
	t.Helper()
	rejected, seen := maliciousDecisions(hubs, malicious)
	if seen == 0 {
		t.Fatal("no malicious decisions traced")
	}
	return float64(rejected) / float64(seen)
}

// singleServerBaseline runs the classic one-server deployment under the
// same attack mix and returns its malicious rejection rate. It runs until
// the filter has judged as many attacker updates as twelve rounds with
// every attacker in each would hold, not for twelve rounds: six honest
// clients fill a round every few milliseconds, so on a loaded box twelve
// rounds could be over before an attacker's goroutine had dialled, and the
// rate was then computed over nothing.
func singleServerBaseline(t *testing.T, numClients, malicious int) float64 {
	t.Helper()
	hub := obsv.NewHub(0)
	// The goal must reach AsyncFilter's MinBatch (2*K = 6 by default) or
	// the filter wholesale-accepts every round without clustering and the
	// detection comparison is vacuous.
	server, err := transport.NewServer(transport.ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: 8,
		StalenessLimit:  10,
		Rounds:          100000,
		Obsv:            hub,
	}, asyncFilter(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	_, wait := startClients(t, numClients, malicious, []string{lis.Addr().String()})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, seen := maliciousDecisions([]*obsv.Hub{hub}, malicious); seen >= 12*malicious {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("baseline never judged %d attacker updates: %+v", 12*malicious, server.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = server.Close()
	wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("baseline serve: %v", err)
	}
	return maliciousRejectRate(t, []*obsv.Hub{hub}, malicious)
}

// TestTwoTierFaultInjection is the fault-injection acceptance scenario:
// both edge->root links drop roughly a third of their operations, one
// edge crashes mid-deployment, and the two-tier system still converges
// under attack with edge-level detection quality comparable to the
// single-server baseline. Run under -race in CI (make check).
func TestTwoTierFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection runs full deployments")
	}
	const numClients, malicious = 8, 2

	baseline := singleServerBaseline(t, numClients, malicious)

	root, rootAddr := startRoot(t, RootConfig{
		InitialParams:     initialParams(t),
		Rounds:            100000,
		StalenessLimit:    10,
		EdgeLeaseDuration: 400 * time.Millisecond,
	}, nil)

	hubs := []*obsv.Hub{obsv.NewHub(0), obsv.NewHub(0)}
	mkEdge := func(id int) EdgeConfig {
		// Goal 6 = AsyncFilter's default MinBatch, so the per-edge filters
		// genuinely cluster every round instead of wholesale-accepting
		// sub-minimum batches.
		serverCfg := edgeServerConfig(t, 6)
		serverCfg.Obsv = hubs[id]
		return EdgeConfig{
			EdgeID:   id,
			RootAddr: rootAddr,
			Server:   serverCfg,
			// ResetProb applies per low-level I/O op; gob batches an exchange
			// into a handful of reads/writes, so 3% per op kills a meaningful
			// fraction of exchanges mid-flight and the idempotent batch
			// protocol has to absorb the resulting resends.
			Dial: transport.FaultDialer(transport.FaultConfig{
				Seed:      int64(31 + id),
				ResetProb: 0.03,
			}),
			HeartbeatEvery:    40 * time.Millisecond,
			RetryBaseDelay:    5 * time.Millisecond,
			RetryMaxDelay:     50 * time.Millisecond,
			MaxPendingBatches: 8,
			Seed:              int64(id),
		}
	}
	edge0, addr0 := startEdge(t, mkEdge(0), asyncFilter(t))
	edge1, addr1 := startEdge(t, mkEdge(1), asyncFilter(t))
	_, wait := startClients(t, numClients, malicious, []string{addr0, addr1})

	// The flaky links must still carry real progress before the crash.
	waitRootVersion(t, root, 6, 30*time.Second)
	if err := edge0.Close(); err != nil {
		t.Logf("edge 0 close: %v", err)
	}

	// After the crash the deployment keeps converging through the
	// survivor's flaky link, and the root notices the death.
	waitRootVersion(t, root, root.Version()+6, 30*time.Second)
	deadline := time.Now().Add(15 * time.Second)
	for root.Stats().ExpiredEdgeLeases == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("crashed edge never evicted: %+v", root.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Link flakiness must show up as exercised retry machinery, not
	// silence.
	if es := edge1.Stats(); es.UplinkFailures == 0 || es.UplinkSessions < 2 {
		t.Errorf("fault injection never tripped the uplink: %+v", es)
	}
	rs := root.Stats()
	if rs.BatchesReplayed == 0 {
		t.Logf("note: no replays observed under faults: %+v", rs)
	}

	_ = edge1.Close()
	_ = root.Close()
	wait()

	// Detection quality: the per-edge filters, despite partitioned views,
	// flaky links and a mid-run crash, stay within tolerance of the
	// single-server filter on the same attack mix.
	twoTier := maliciousRejectRate(t, hubs, malicious)
	if twoTier < baseline-0.35 {
		t.Errorf("two-tier malicious rejection rate %.2f fell too far below baseline %.2f", twoTier, baseline)
	}
	t.Logf("malicious rejection rate: baseline %.2f, two-tier under faults %.2f", baseline, twoTier)
}

// TestEdgeUplinkSurvivesFloodOfResets hammers a single edge->root link
// with deterministic resets every few operations and checks the session
// counter machinery stays consistent: every applied batch id is applied
// exactly once despite the replays.
func TestEdgeUplinkSurvivesFloodOfResets(t *testing.T) {
	root, rootAddr := startRoot(t, RootConfig{
		InitialParams:  initialParams(t),
		Rounds:         100000,
		StalenessLimit: 10,
	}, nil)

	edge, addr := startEdge(t, EdgeConfig{
		EdgeID:   0,
		RootAddr: rootAddr,
		Server:   edgeServerConfig(t, 2),
		// Every connection dies after 20 I/O ops. gob buffers aggressively
		// (an exchange is only a few low-level reads/writes), so this is
		// enough budget for the hello plus a handful of batches before the
		// link resets and the session has to start over.
		Dial: transport.FaultDialer(transport.FaultConfig{
			Seed:          7,
			ResetAfterOps: 20,
		}),
		HeartbeatEvery:    30 * time.Millisecond,
		RetryBaseDelay:    5 * time.Millisecond,
		RetryMaxDelay:     30 * time.Millisecond,
		MaxPendingBatches: 16,
	}, nil)
	_, wait := startClients(t, 4, 0, []string{addr})

	waitRootVersion(t, root, 8, 30*time.Second)
	// Progress alone isn't evidence the resets fired: keep the deployment
	// running until the edge has demonstrably rebuilt its session at least
	// once (edge stats are mutex-guarded and safe to poll live).
	deadline := time.Now().Add(20 * time.Second)
	for edge.Stats().UplinkSessions < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("reset-limited link never rebuilt a session: edge = %+v, root = %+v",
				edge.Stats(), root.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = edge.Close()
	_ = root.Close()
	wait()

	es := edge.Stats()
	if es.UplinkFailures == 0 {
		t.Errorf("reset-limited link recorded no uplink failures: %+v", es)
	}
	rs := root.Stats()
	if rs.EdgeReconnects == 0 {
		t.Errorf("root never saw the edge re-Hello after a reset: %+v", rs)
	}
	// Exactly-once: applied batches and version agree, replays were
	// answered without application.
	if rs.BatchesApplied != rs.Rounds {
		t.Errorf("applied %d != rounds %d", rs.BatchesApplied, rs.Rounds)
	}
}

// TestConcurrentEdgesStress drives four edges into one root at once to
// shake out races under -race; correctness assertions are minimal on
// purpose.
func TestConcurrentEdgesStress(t *testing.T) {
	root, rootAddr := startRoot(t, RootConfig{
		InitialParams:     make([]float64, rootTestDim),
		Rounds:            100000,
		EdgeLeaseDuration: time.Second,
	}, nil)

	var wg sync.WaitGroup
	for e := 0; e < 4; e++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			edge := dialRootT(t, rootAddr)
			if reply := edge.hello(id, 1); reply.Nack != 0 {
				t.Errorf("edge %d refused: %v", id, reply.Nack)
				return
			}
			for b := uint64(1); b <= 20; b++ {
				reply := edge.batch(b, testUpdate(id*10+int(b%4), 0.01))
				if reply.Nack != 0 || reply.Ack != b {
					t.Errorf("edge %d batch %d: %+v", id, b, reply)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	if got := root.Version(); got != 80 {
		t.Errorf("version = %d, want 80 (4 edges x 20 batches)", got)
	}
}
