package replica

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// errPartitioned is what a gated connection returns once its side of the
// network is cut.
var errPartitioned = errors.New("replica test: partitioned")

// gatedConn fails every operation once cut flips: the established
// replication sessions crossing a partition must break, not just new
// dials. (New dials while cut go through a FaultConn that resets every
// op instead — the fault-injection path the drill is required to use.)
type gatedConn struct {
	net.Conn
	cut *atomic.Bool
}

func (c *gatedConn) Read(p []byte) (int, error) {
	if c.cut.Load() {
		return 0, errPartitioned
	}
	return c.Conn.Read(p)
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.cut.Load() {
		return 0, errPartitioned
	}
	return c.Conn.Write(p)
}

// TestSymmetricPartitionDrill is the quorum acceptance drill: a
// three-node group under gradient-deviation attackers and flaky edge
// links is partitioned 1/2. The minority node runs candidacies through
// fault-injected links that can never reach quorum and must never serve
// an edge, while the majority side keeps serving. After the
// partition heals and the primary is killed, exactly one survivor wins
// the election, the deployment converges on it, and the commit-ring
// audit proves no batch was double-counted across the whole sequence.
func TestSymmetricPartitionDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("partition drill runs a full deployment")
	}
	const (
		numClients = 8
		malicious  = 2
		lease      = 500 * time.Millisecond
	)

	replLis, replAddrs := bindRepl(t, 3)
	var edgeLis [3]net.Listener
	var peers []string
	for i := range edgeLis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		edgeLis[i] = l
		peers = append(peers, l.Addr().String())
	}

	// The partition: node 2 alone on one side. Established connections
	// break through the gate; dials attempted while cut succeed but get a
	// FaultConn resetting every op, so vote exchanges die mid-flight the
	// way a real flapping link kills them.
	var cut atomic.Bool
	partDial := func(seed int64, minority bool) func(string) (net.Conn, error) {
		return func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			if !minority && addr != replAddrs[2] {
				// Majority-internal links never cross the partition.
				return conn, nil
			}
			if cut.Load() {
				return transport.NewFaultConn(conn, transport.FaultConfig{Seed: seed, ResetProb: 1}), nil
			}
			return &gatedConn{Conn: conn, cut: &cut}, nil
		}
	}

	nodes := make([]*Node, 3)
	roots := make([]*topology.Root, 3)
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		cfg := quorumConfig(i, replLis, replAddrs, lease, dir)
		cfg.Peers = peers
		cfg.Dial = partDial(int64(50+i), i == 2)
		node, root := replNode(t, cfg)
		nodes[i] = node
		roots[i] = root
		go func(n *Node, lis net.Listener) { _ = n.Serve(lis) }(node, edgeLis[i])
		t.Cleanup(func() { _ = node.Close() })
	}
	waitFor(t, 10*time.Second, "both standbys attached", func() bool {
		return nodes[0].Stats().StandbyAttaches >= 2
	})

	hubs := []*obsv.Hub{obsv.NewHub(0), obsv.NewHub(0)}
	mkEdge := func(id int) topology.EdgeConfig {
		return topology.EdgeConfig{
			EdgeID:   id,
			RootAddr: peers[0],
			Server: transport.ServerConfig{
				InitialParams:   initialParams(t),
				AggregationGoal: 6,
				StalenessLimit:  10,
				Rounds:          100000,
				Obsv:            hubs[id],
			},
			Dial: transport.FaultDialer(transport.FaultConfig{
				Seed:      int64(31 + id),
				ResetProb: 0.05,
			}),
			HeartbeatEvery:    40 * time.Millisecond,
			RetryBaseDelay:    5 * time.Millisecond,
			RetryMaxDelay:     50 * time.Millisecond,
			MaxPendingBatches: 8,
			Seed:              int64(id),
		}
	}
	edge0, addr0 := startEdge(t, mkEdge(0), newFilter(t))
	edge1, addr1 := startEdge(t, mkEdge(1), newFilter(t))
	_, wait := startClients(t, numClients, malicious, []string{addr0, addr1})

	waitVersion(t, roots[0], 6, 30*time.Second)

	// --- Phase 1: cut node 2 off alone.
	cut.Store(true)
	beforeCut := roots[0].Version()

	// The minority's lease expires and its candidacies start failing
	// through the faulted links.
	waitFor(t, 20*time.Second, "minority candidacies failing", func() bool {
		st := nodes[2].Stats()
		return st.ElectionsStarted >= 1 && st.ElectionsLost >= 1
	})
	// While the majority keeps committing rounds, the minority must never
	// leave the standby/candidate states or fence an epoch.
	hold := time.Now().Add(4 * lease)
	for time.Now().Before(hold) {
		switch r := nodes[2].Role(); r {
		case RoleStandby, RoleCandidate:
		default:
			t.Fatalf("minority node reached role %s during the partition", r)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := nodes[2].Stats(); st.ElectionsWon != 0 {
		t.Fatalf("minority node won %d elections during the partition", st.ElectionsWon)
	}
	if got := nodes[2].Epoch(); got != 0 {
		t.Fatalf("minority node fenced epoch %d without quorum", got)
	}
	waitVersion(t, roots[0], beforeCut+6, 30*time.Second)

	// --- Phase 2: heal, then kill the primary.
	cut.Store(false)
	atKill := roots[1].Version()
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}

	winner := -1
	deadline := time.Now().Add(20 * time.Second)
	for winner < 0 {
		primaries := 0
		for i := 1; i < 3; i++ {
			if nodes[i].Role() == RolePrimary {
				primaries++
				winner = i
			}
		}
		if primaries > 1 {
			t.Fatal("two survivors serve as primary concurrently")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no winner after heal+kill: node1 %s %+v, node2 %s %+v",
				nodes[1].Role(), nodes[1].Stats(), nodes[2].Role(), nodes[2].Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	loser := 3 - winner

	// The deployment re-homes to the winner and keeps converging under
	// attack; the loser must never co-serve.
	waitVersion(t, roots[winner], atKill+6, 30*time.Second)
	if nodes[loser].Role() == RolePrimary {
		t.Fatal("election loser serves as primary")
	}
	if r0, r1 := edge0.Stats().UplinkRehomes, edge1.Stats().UplinkRehomes; r0+r1 == 0 {
		t.Errorf("no edge re-homed after the failover (edge0 %d, edge1 %d)", r0, r1)
	}

	_ = edge0.Close()
	_ = edge1.Close()
	for _, n := range nodes {
		_ = n.Close()
	}
	wait()

	// Zero-double-count audit across all three generations' commit rings:
	// the same (edge, batch) applied by two nodes — or twice by one —
	// would surface as a duplicate pair.
	type pair struct {
		edge  int
		batch uint64
	}
	applied := make(map[pair]string)
	labels := []string{"old primary", "node 1", "node 2"}
	for i, n := range nodes {
		n.mu.Lock()
		for _, rec := range n.ring {
			p := pair{edge: rec.EdgeID, batch: rec.BatchID}
			if prev, ok := applied[p]; ok {
				t.Errorf("batch (edge %d, id %d) applied by %s AND %s — double count across the partition",
					p.edge, p.batch, prev, labels[i])
			}
			applied[p] = labels[i]
		}
		n.mu.Unlock()
	}
	if len(applied) == 0 {
		t.Error("audit saw no applied batches at all")
	}
	rs := roots[winner].Stats()
	if rs.BatchesApplied != rs.Rounds {
		t.Errorf("winner applied %d batches at version %d — application and version must move together",
			rs.BatchesApplied, rs.Rounds)
	}

	// Detection kept working through partition and failover: the traced
	// decisions must include rejects for the attacker IDs.
	rate := maliciousRejectRate(t, hubs, malicious)
	t.Logf("partition drill: winner node %d at epoch %d, version %d; malicious rejection rate %.2f",
		winner, nodes[winner].Epoch(), roots[winner].Version(), rate)
}
