package replica

import (
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// bindRepl pre-binds n replication listeners so the full vote mesh is
// known before any node is constructed (the ReplListener path).
func bindRepl(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lis := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis[i] = l
		addrs[i] = l.Addr().String()
	}
	return lis, addrs
}

// quorumConfig builds the i-th member's config for a group whose
// replication mesh is addrs: node 0 starts primary, everyone else
// standby, and every node votes with every other.
func quorumConfig(i int, lis []net.Listener, addrs []string, lease time.Duration, dir string) Config {
	cfg := Config{
		NodeID:       i,
		ReplListener: lis[i],
		Lease:        lease,
		Seed:         int64(i + 1),
		VotePath:     filepath.Join(dir, "vote"+string(rune('0'+i))+".ckpt"),
	}
	for j, a := range addrs {
		if j != i {
			cfg.VotePeers = append(cfg.VotePeers, a)
		}
	}
	if i != 0 {
		cfg.Upstreams = []string{addrs[0]}
	}
	return cfg
}

// TestVoteLedgerDurability pins the ledger's contract: one grant per
// epoch, persisted before it becomes visible, idempotent only for the
// same candidate, raise-only across restarts, and corruption is an
// error rather than amnesia.
func TestVoteLedgerDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vote.ckpt")
	l, err := newVoteLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if e, v := l.last(); e != 0 || v != -1 {
		t.Fatalf("fresh ledger = (%d, %d), want (0, -1)", e, v)
	}

	check := func(epoch uint64, candidate int, wantOK bool, wantCur uint64) {
		t.Helper()
		ok, cur, err := l.grantEpoch(epoch, candidate)
		if err != nil {
			t.Fatalf("grantEpoch(%d, %d): %v", epoch, candidate, err)
		}
		if ok != wantOK || cur != wantCur {
			t.Errorf("grantEpoch(%d, %d) = (%v, %d), want (%v, %d)",
				epoch, candidate, ok, cur, wantOK, wantCur)
		}
	}
	check(3, 7, true, 3)  // first grant
	check(2, 9, false, 3) // lower epoch refused
	check(3, 9, false, 3) // same epoch, different candidate: refused
	check(3, 7, true, 3)  // same epoch, same candidate: idempotent
	check(5, 9, true, 5)  // higher epoch grants

	// Restart: the ledger must come back exactly as persisted.
	l2, err := newVoteLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if e, v := l2.last(); e != 5 || v != 9 {
		t.Errorf("restarted ledger = (%d, %d), want (5, 9)", e, v)
	}

	// Epoch 0 is never grantable, even "idempotently" on a fresh ledger —
	// a candidate at epoch 0 would not fence anything.
	mem, err := newVoteLedger("")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := mem.grantEpoch(0, 0); ok {
		t.Error("fresh ledger granted epoch 0")
	}

	// A corrupt ledger file must refuse to open: voting with amnesia
	// would break the one-grant-per-epoch guarantee.
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newVoteLedger(path); err == nil {
		t.Error("corrupt ledger opened without error")
	}
}

// TestVoteLedgerPersistsBeforeRaise: a grant whose ledger write fails is
// refused and leaves the ledger where it was. The order is check, then
// persist, then raise; a raise before the write would let a restarted
// voter grant the same epoch twice.
func TestVoteLedgerPersistsBeforeRaise(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := newVoteLedger(filepath.Join(dir, "vote.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, err := l.grantEpoch(2, 4); !ok || err != nil {
		t.Fatalf("grantEpoch(2, 4) = (%v, %v), want a grant", ok, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ok, cur, err := l.grantEpoch(3, 7)
	if err == nil || ok {
		t.Fatalf("grantEpoch(3, 7) with its ledger directory gone = (%v, %v), want a refusal with an error", ok, err)
	}
	if cur != 2 {
		t.Errorf("failed grant reports epoch %d, want 2", cur)
	}
	if e, v := l.last(); e != 2 || v != 4 {
		t.Errorf("ledger after a failed grant = (%d, %d), want (2, 4)", e, v)
	}
}

// TestOutclassedCandidateStandsDown: a candidate refused by a voter
// whose applied log is ahead can never win (the LastSeq rule refuses it
// every round), so the loss must push its next candidacy out by at
// least a full lease — a clear window for the better-qualified peer —
// rather than the usual sub-lease jitter, and the voter's advertised
// epoch must land in the epoch hint.
func TestOutclassedCandidateStandsDown(t *testing.T) {
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	go func() {
		for {
			conn, err := fake.Accept()
			if err != nil {
				return
			}
			uc := transport.NewUpstreamConn(conn, 0, time.Second, time.Second)
			if msg, err := uc.ReadReplica(); err == nil && msg.Vote != nil {
				_ = uc.WritePrimary(&transport.PrimaryMsg{Grant: &transport.VoteGrant{
					VoterID: 9, Epoch: msg.Vote.Epoch + 3, LastSeq: 99,
				}})
			}
			conn.Close()
		}
	}()

	const lease = time.Second
	node, _ := replNode(t, Config{
		NodeID:    1,
		Upstreams: []string{fake.Addr().String()},
		VotePeers: []string{fake.Addr().String()},
		Lease:     lease,
	})
	defer node.Close()

	before := time.Now()
	if node.runElection() {
		t.Fatal("outclassed candidate won an election")
	}
	node.mu.Lock()
	next := node.nextElection
	hint := node.epochHint
	role := node.role
	st := node.stats
	node.mu.Unlock()
	if role != RoleStandby {
		t.Errorf("role after loss = %v, want standby", role)
	}
	if got := next.Sub(before); got < lease {
		t.Errorf("next candidacy only %v away, want >= the %v lease", got, lease)
	}
	if hint < 4 {
		t.Errorf("epoch hint = %d, want >= 4 (the voter advertised epoch+3)", hint)
	}
	if st.ElectionsLost != 1 || st.ElectionsWon != 0 {
		t.Errorf("elections lost/won = %d/%d, want exactly one lost", st.ElectionsLost, st.ElectionsWon)
	}
}

// TestOutclassedStandDownRealVoter is the same stand-down contract
// driven through a real voter node instead of a scripted one: the
// voter's decideVote refusal (whatever its reason) must carry the
// voter's applied position back across the wire, and the behind
// candidate must read it out of the reply and step aside.
func TestOutclassedStandDownRealVoter(t *testing.T) {
	const lease = time.Second
	lis, addrs := bindRepl(t, 2)
	dir := t.TempDir()

	// Two standbys pointed at a dead upstream, voting with each other.
	mk := func(i int) Config {
		cfg := quorumConfig(i, lis, addrs, lease, dir)
		cfg.Upstreams = []string{"127.0.0.1:1"}
		return cfg
	}
	behind, err := NewNode(mk(0), testRoot(t, newFilter(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer behind.Close()
	ahead, err := NewNode(mk(1), testRoot(t, newFilter(t)))
	if err != nil {
		t.Fatal(err)
	}
	// The voter is two records ahead, so its refusal advertises seq 2.
	for seq := uint64(1); seq <= 2; seq++ {
		if err := ahead.root.ApplyRecord(&transport.ReplRecord{Seq: seq, EdgeID: 0, BatchID: seq}); err != nil {
			t.Fatal(err)
		}
	}
	startNode(t, ahead)

	before := time.Now()
	if behind.runElection() {
		t.Fatal("behind candidate won against an ahead voter")
	}
	behind.mu.Lock()
	next := behind.nextElection
	behind.mu.Unlock()
	if got := next.Sub(before); got < lease {
		t.Errorf("next candidacy only %v away, want >= the %v lease", got, lease)
	}
}

// TestQuorumElectionKillPrimary is the tentpole acceptance walk: a
// three-node group loses its primary and must elect exactly one new one
// within a small multiple of the lease. The loser demotes and
// re-attaches to the winner through the vote-peer rotation, and at no
// sampled instant do two nodes serve as primary.
func TestQuorumElectionKillPrimary(t *testing.T) {
	const lease = 300 * time.Millisecond
	lis, addrs := bindRepl(t, 3)
	dir := t.TempDir()

	nodes := make([]*Node, 3)
	edgeAddrs := make([]string, 3)
	for i := 0; i < 3; i++ {
		n, err := NewNode(quorumConfig(i, lis, addrs, lease, dir), testRoot(t, newFilter(t)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		edgeAddrs[i] = startNode(t, n)
	}
	waitFor(t, 10*time.Second, "both standbys attached", func() bool {
		return nodes[0].Stats().StandbyAttaches >= 2
	})

	// Commit a few batches so the election runs over real log state.
	edge := dialEdge(t, edgeAddrs[0])
	if reply := edge.hello(7, 1); reply.Nack != 0 {
		t.Fatalf("hello refused: %v", reply.Nack)
	}
	for b := uint64(1); b <= 3; b++ {
		if reply := edge.batch(b, testUpdate(int(b), 0.25)); reply.Nack != 0 {
			t.Fatalf("batch %d refused: %v", b, reply.Nack)
		}
	}
	waitFor(t, 10*time.Second, "standbys caught up", func() bool {
		return nodes[1].Stats().RecordsApplied >= 3 && nodes[2].Stats().RecordsApplied >= 3
	})

	killedAt := time.Now()
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}

	// Exactly one survivor may reach RolePrimary — sampled continuously,
	// never just at the end.
	winner := -1
	deadline := time.Now().Add(15 * time.Second)
	for winner < 0 {
		primaries := 0
		for i := 1; i < 3; i++ {
			if nodes[i].Role() == RolePrimary {
				primaries++
				winner = i
			}
		}
		if primaries > 1 {
			t.Fatal("two nodes serve as primary concurrently")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no election winner: node1 %s %+v, node2 %s %+v",
				nodes[1].Role(), nodes[1].Stats(), nodes[2].Role(), nodes[2].Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	took := time.Since(killedAt)
	// Lease expiry (1 lease) + watchdog tick (lease/4) + one split-vote
	// retry round with jittered backoff must fit comfortably here.
	if took > 6*lease {
		t.Errorf("election took %v, want within ~2 %v leases", took, lease)
	}
	loser := 3 - winner
	if winner != 1 {
		t.Logf("winner is node %d (tie-break favors node 1; acceptable under vote splits)", winner)
	}
	if got := nodes[winner].Epoch(); got < 1 {
		t.Errorf("winner serves at epoch %d, want >= 1 (fenced above the dead generation)", got)
	}
	if st := nodes[winner].Stats(); st.ElectionsWon != 1 {
		t.Errorf("winner ElectionsWon = %d, want 1", st.ElectionsWon)
	}

	// The loser demotes back to standby and re-attaches to the winner via
	// the vote-peer rotation; the winner streams to it.
	waitFor(t, 15*time.Second, "loser re-attached to winner", func() bool {
		return nodes[loser].Role() == RoleStandby && nodes[winner].Stats().StandbyAttaches >= 1
	})
	if nodes[loser].Epoch() > nodes[winner].Epoch() {
		t.Errorf("loser epoch %d above winner epoch %d", nodes[loser].Epoch(), nodes[winner].Epoch())
	}

	// The winner serves edges on its own listener.
	edge2 := dialEdge(t, edgeAddrs[winner])
	if reply := edge2.hello(8, 1); reply.Nack != 0 {
		t.Errorf("winner refused an edge hello: %v", reply.Nack)
	}
	t.Logf("election: node %d won in %v at epoch %d", winner, took, nodes[winner].Epoch())
}

// TestSymmetricSplitRefusesToServe pins the no-split-brain side of the
// quorum: in a two-node group, either half of a symmetric 1-1 split is a
// minority. The surviving standby keeps running candidacies that can
// never reach quorum and must park without ever binding the edge
// listener.
func TestSymmetricSplitRefusesToServe(t *testing.T) {
	const lease = 200 * time.Millisecond
	lis, addrs := bindRepl(t, 2)
	dir := t.TempDir()

	pNode, err := NewNode(quorumConfig(0, lis, addrs, lease, dir), testRoot(t, newFilter(t)))
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, pNode)
	sNode, err := NewNode(quorumConfig(1, lis, addrs, lease, dir), testRoot(t, newFilter(t)))
	if err != nil {
		t.Fatal(err)
	}
	sAddr := startNode(t, sNode)
	if sNode.quorum != 2 {
		t.Fatalf("two-node group quorum = %d, want 2", sNode.quorum)
	}
	waitFor(t, 10*time.Second, "standby attached", func() bool {
		return pNode.Stats().StandbyAttaches >= 1
	})

	// The split: from the standby's side, losing the primary IS the
	// symmetric partition — its only vote peer is unreachable.
	if err := pNode.Close(); err != nil {
		t.Fatal(err)
	}

	// Candidacies must start and keep failing.
	waitFor(t, 15*time.Second, "repeated failed candidacies", func() bool {
		st := sNode.Stats()
		return st.ElectionsStarted >= 2 && st.ElectionsLost >= 2
	})
	hold := time.Now().Add(4 * lease)
	for time.Now().Before(hold) {
		switch r := sNode.Role(); r {
		case RoleStandby, RoleCandidate:
		default:
			t.Fatalf("minority half reached role %s", r)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := sNode.Stats(); st.ElectionsWon != 0 {
		t.Errorf("minority half won %d elections", st.ElectionsWon)
	}
	if got := sNode.Epoch(); got != 0 {
		t.Errorf("minority half fenced epoch %d without quorum", got)
	}

	// The root is still held: a dial is accepted and dropped unanswered,
	// never served.
	conn, err := net.DialTimeout("tcp", sAddr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial the held root's edge listener: %v", err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("minority half served bytes on the edge listener")
	}

	// /healthz surfaces the stuck state: role standby or candidate with a
	// stale (zero) epoch — the operator's cue in the split-brain runbook.
	h := sNode.Health()
	if h.Role != "standby" && h.Role != "candidate" {
		t.Errorf("stuck minority reports role %q", h.Role)
	}
	if h.Epoch != 0 {
		t.Errorf("stuck minority reports epoch %d", h.Epoch)
	}
}

// TestCandidateCrashDuringPromoting kills a candidate in the crash
// window the vote protocol is built around: the self-grant is persisted
// (it has already been counted by voters) but the fenced epoch is not.
// The node restarted from that exact disk state must honor the grant —
// refuse the spent epoch to any other candidate, allow only the
// idempotent self re-grant — and target a strictly higher epoch for its
// next candidacy.
func TestCandidateCrashDuringPromoting(t *testing.T) {
	const lease = 250 * time.Millisecond
	lis, addrs := bindRepl(t, 3)
	dir := t.TempDir()

	// Node 1 is the tie-break favorite (lowest standby ID): the unique
	// possible winner while it lives, so the hook below always fires on it.
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		n, err := NewNode(quorumConfig(i, lis, addrs, lease, dir), testRoot(t, newFilter(t)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	nodes[1].promotingHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	for _, n := range nodes {
		startNode(t, n)
	}
	// Runs before the node cleanups: unblocks the frozen candidate so
	// Close's wg.Wait can finish.
	t.Cleanup(func() { close(release) })

	waitFor(t, 10*time.Second, "both standbys attached", func() bool {
		return nodes[0].Stats().StandbyAttaches >= 2
	})
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(20 * time.Second):
		t.Fatalf("no candidate reached RolePromoting: node1 %+v, node2 %+v",
			nodes[1].Stats(), nodes[2].Stats())
	}

	// The crash window is real: the self-grant is on disk, the fenced
	// epoch is not.
	votePath := nodes[1].cfg.VotePath
	var rec checkpoint.VoteRecord
	if err := checkpoint.Load(votePath, &rec); err != nil {
		t.Fatalf("vote record not persisted at the promoting seam: %v", err)
	}
	if rec.VotedFor != 1 || rec.Epoch < 1 {
		t.Fatalf("persisted vote record = %+v, want a self-grant at epoch >= 1", rec)
	}
	if got := nodes[1].Epoch(); got >= rec.Epoch {
		t.Fatalf("epoch %d already persisted at the crash point (grant epoch %d)", got, rec.Epoch)
	}

	// "Kill" the candidate: snapshot its ledger file exactly as the crash
	// would leave it and restart a fresh node from that disk state. (The
	// frozen original is released and torn down at cleanup.)
	data, err := os.ReadFile(votePath)
	if err != nil {
		t.Fatal(err)
	}
	restartPath := filepath.Join(dir, "vote1-restart.ckpt")
	if err := os.WriteFile(restartPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewNode(Config{
		NodeID:    1,
		Upstreams: []string{addrs[2]},
		VotePeers: []string{addrs[2]},
		VotePath:  restartPath,
		Lease:     lease,
		Seed:      9,
	}, testRoot(t, newFilter(t)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restarted.Close() })

	if e, v := restarted.ledger.last(); e != rec.Epoch || v != 1 {
		t.Errorf("restarted ledger = (%d, %d), want (%d, 1)", e, v, rec.Epoch)
	}
	// Never regress: the next candidacy targets strictly above the
	// persisted grant, so the spent epoch is not reused.
	if next := restarted.nextElectionEpoch(); next != rec.Epoch+1 {
		t.Errorf("nextElectionEpoch = %d, want %d", next, rec.Epoch+1)
	}
	// Never double-grant: another candidate asking for the spent epoch is
	// refused by the ledger (ID 0 outranks the tie-break, so only the
	// ledger can be the refusal).
	g := restarted.decideVote(&transport.VoteRequest{CandidateID: 0, Epoch: rec.Epoch, LastSeq: 99})
	if g.Granted {
		t.Error("restarted voter double-granted its persisted epoch")
	}
	if g.Epoch != rec.Epoch {
		t.Errorf("refusal advertises epoch %d, want %d", g.Epoch, rec.Epoch)
	}
	// The idempotent path stays open: the same candidate may re-collect
	// its own grant after the crash.
	ok, cur, err := restarted.ledger.grantEpoch(rec.Epoch, 1)
	if err != nil || !ok || cur != rec.Epoch {
		t.Errorf("idempotent self re-grant = (%v, %d, %v), want (true, %d, nil)", ok, cur, err, rec.Epoch)
	}
}
