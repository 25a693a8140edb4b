// Package replica turns a topology.Root into one node of a replicated
// root group: a primary that serves edges and streams every committed
// batch to standbys, and standbys that mirror the primary's state and
// promote themselves when its lease expires.
//
// Replication is log shipping (transport/replication.go): on attach a
// standby receives either the tail of the primary's in-memory record
// ring or a full checkpoint snapshot, then one ReplRecord per committed
// batch. Failover is lease-based with fenced epochs: a standby that has
// not heard from its primary for a full lease bumps the fencing epoch,
// persists it, and starts serving edges; edges carry the epoch on every
// request, so a resurrected old primary is refused with NackFenced by
// the first edge that reaches it and demotes itself instead of
// split-braining the deployment.
//
// The fencing invariant (see internal/topology/replication.go): an
// epoch is bumped exactly once per promotion and persisted before the
// promoted root accepts its first edge, so two roots can never both
// believe they own the same epoch.
//
// With Config.VotePeers set the group promotes by quorum election
// instead of bare lease expiry (election.go): an expired standby becomes
// a candidate, durably grants itself a fresh epoch, and may only enter
// RolePromoting after a majority of the group grants the same epoch —
// each voter persisting its grant (internal/checkpoint.VoteRecord)
// before the reply leaves the wire. Quorum intersection then guarantees
// at most one winner per epoch even across voter crashes, and a
// minority partition parks in RoleCandidate without ever serving an
// edge.
package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// Role is a node's position in the replication group.
type Role int

const (
	// RolePrimary serves edges and streams records to standbys.
	RolePrimary Role = iota
	// RoleStandby mirrors the primary; its held root drops edge
	// connections unanswered.
	RoleStandby
	// RolePromoting is the transient state between lease expiry and the
	// promoted epoch being persisted.
	RolePromoting
	// RoleFenced is a demoted old primary: a peer proved a newer epoch
	// exists and the node has torn itself down.
	RoleFenced
	// RoleCandidate is a standby whose lease expired in a quorum group:
	// it is collecting votes and serves nothing until a majority of the
	// group grants its epoch. A minority partition parks here forever.
	RoleCandidate
)

// String names the role for /healthz and logs.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	case RolePromoting:
		return "promoting"
	case RoleFenced:
		return "fenced"
	case RoleCandidate:
		return "candidate"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// gaugeValue encodes the role for the afl_replica_role gauge:
// 0 primary, 1 standby, 2 promoting, 3 fenced, 4 candidate.
func (r Role) gaugeValue() float64 { return float64(int(r)) }

// Config parameterizes one replication node.
type Config struct {
	// NodeID identifies this node within the replication group (>= 0,
	// unique per group).
	NodeID int
	// ReplListen is the address the replication channel listens on. A
	// primary must set it to accept standbys; a standby binds it too so
	// it can answer vote requests and serve the next generation of
	// standbys after promotion. Empty disables the replication listener.
	ReplListen string
	// ReplListener, when non-nil, is a pre-bound replication listener
	// used instead of ReplListen. Group deployments bind every member's
	// listener first so the full VotePeers/Upstreams address mesh is
	// known before any node is constructed.
	ReplListener net.Listener
	// Upstreams is the list of primary replication addresses a standby
	// dials (rotating on failure). Empty means this node starts as the
	// primary.
	Upstreams []string
	// Peers is the static edge-facing address list of every replica in
	// the group, relayed to edges through task replies so they can find
	// the promoted standby when the primary dies. Should include this
	// node's own edge address.
	Peers []string
	// VotePeers lists the replication addresses of every OTHER group
	// member (self excluded). Non-empty switches promotion from
	// lease-only to quorum elections: a standby whose lease expires
	// becomes a candidate and may only promote after a majority of the
	// group grants its epoch. Standbys also rotate through these
	// addresses when re-attaching, so an election loser finds the winner.
	VotePeers []string
	// QuorumSize is the number of distinct grants (the candidate's own
	// durable self-grant included) required to promote. 0 selects a
	// majority of the group implied by VotePeers: (len(VotePeers)+1)/2+1.
	// Values above the group size are rejected as unwinnable.
	QuorumSize int
	// VotePath persists the node's vote ledger (internal/checkpoint
	// format) so a crash-and-restart voter cannot grant the same epoch
	// twice. Empty keeps the ledger in memory only — acceptable for
	// tests, not for a durable group.
	VotePath string
	// Lease is how long a standby waits without hearing from its primary
	// before promoting itself. 0 selects a default; a standby group
	// should use the same lease everywhere.
	Lease time.Duration
	// Heartbeat is the primary's idle push interval; it must be well
	// under Lease. 0 selects Lease/4.
	Heartbeat time.Duration
	// ReadTimeout and WriteTimeout bound each replication channel
	// operation (0 selects defaults derived from Lease).
	ReadTimeout, WriteTimeout time.Duration
	// MaxMessageBytes caps a decoded replication message (0 disables).
	MaxMessageBytes int64
	// RetryBaseDelay and RetryMaxDelay shape the standby's reconnect
	// backoff (defaults 50ms / 2s).
	RetryBaseDelay, RetryMaxDelay time.Duration
	// Seed drives the reconnect jitter.
	Seed int64
	// Codec selects the replication wire codec (zero = gob, the legacy
	// stream). transport.CodecBinary negotiates the binary frame
	// envelope: attaching standbys and vote candidates announce it with
	// the connection preamble, and every member's replication listener
	// sniffs, so mixed-codec groups interoperate during a rollout.
	Codec transport.Codec
	// Dial overrides the replication dialer (tests inject faulty links).
	Dial func(addr string) (net.Conn, error)
	// LogDepth bounds the in-memory record ring a late-attaching standby
	// can catch up from before falling back to a snapshot (<= 0 selects
	// 1024).
	LogDepth int
	// Obsv, when non-nil, attaches replication gauges: afl_replica_role,
	// afl_replica_epoch, afl_replica_lag_records.
	Obsv *obsv.Hub
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.NodeID < 0 {
		return fmt.Errorf("replica: Config: NodeID = %d, need >= 0", c.NodeID)
	}
	if c.Lease < 0 || c.Heartbeat < 0 || c.ReadTimeout < 0 || c.WriteTimeout < 0 {
		return errors.New("replica: Config: negative duration")
	}
	if c.Heartbeat > 0 && c.Lease > 0 && c.Heartbeat >= c.Lease {
		return fmt.Errorf("replica: Config: Heartbeat %v must be below Lease %v", c.Heartbeat, c.Lease)
	}
	if c.MaxMessageBytes < 0 {
		return fmt.Errorf("replica: Config: MaxMessageBytes = %d, need >= 0", c.MaxMessageBytes)
	}
	if c.Codec != transport.CodecGob && c.Codec != transport.CodecBinary {
		return fmt.Errorf("replica: Config: unknown Codec %v", c.Codec)
	}
	if c.QuorumSize < 0 {
		return fmt.Errorf("replica: Config: QuorumSize = %d, need >= 0", c.QuorumSize)
	}
	if group := len(c.VotePeers) + 1; c.QuorumSize > group {
		return fmt.Errorf("replica: Config: QuorumSize %d is unwinnable in a group of %d (VotePeers + self)",
			c.QuorumSize, group)
	}
	return nil
}

// withDefaults returns the config with zero values resolved.
func (c Config) withDefaults() Config {
	if c.Lease == 0 {
		c.Lease = 2 * time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = c.Lease / 4
	}
	if c.ReadTimeout == 0 {
		// A standby's read blocks until the primary's next push, which
		// arrives at least every Heartbeat; the primary's read waits only
		// for the standby's immediate ack. One lease covers both with
		// slack for a loaded scheduler.
		c.ReadTimeout = 2 * c.Lease
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = c.Lease
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.RetryMaxDelay == 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	if c.LogDepth <= 0 {
		c.LogDepth = 1024
	}
	return c
}

// Stats counts a node's replication activity. Each field is mirrored on
// /metrics under its metric tag (obsv.Mirror), so a scrape equals Stats()
// exactly.
type Stats struct {
	// RecordsStreamed counts records pushed to standbys (one per record
	// per standby); SnapshotsServed counts full snapshots sent; and
	// StandbyAttaches counts accepted standby hellos. Primary side.
	RecordsStreamed int `metric:"afl_replica_records_streamed_total"`
	SnapshotsServed int `metric:"afl_replica_snapshots_served_total"`
	StandbyAttaches int `metric:"afl_replica_standby_attaches_total"`
	// RecordsApplied and SnapshotsInstalled count what a standby
	// mirrored; UplinkFailures counts failed dials or broken sessions.
	RecordsApplied     int `metric:"afl_replica_records_applied_total"`
	SnapshotsInstalled int `metric:"afl_replica_snapshots_installed_total"`
	UplinkFailures     int `metric:"afl_replica_uplink_failures_total"`
	// Promotions counts promotions to primary (0 or 1 per node);
	// RecordsLostOnPromote is the replication lag at promotion time —
	// committed primary batches the standby never received. The edges'
	// batch replay reconciles most of them; the watermark audit counts
	// the rest as BatchesLost, never as double-applies.
	Promotions           int `metric:"afl_replica_promotions_total"`
	RecordsLostOnPromote int `metric:"afl_replica_records_lost_on_promote_total"`
	// FencedNacksSent counts standbys this node refused for carrying a
	// newer epoch; FencedObserved counts times this node learned it was
	// stale (or its upstream was) from a replication exchange.
	FencedNacksSent int `metric:"afl_replica_fenced_nacks_sent_total"`
	FencedObserved  int `metric:"afl_replica_fenced_observed_total"`
	// ElectionsStarted, ElectionsWon and ElectionsLost count this node's
	// candidacies in a quorum group: every lease expiry starts one, a
	// majority of grants wins it, anything else (no quorum, a resurfaced
	// primary, an overtaking epoch) loses it back to standby.
	ElectionsStarted int `metric:"afl_replica_elections_started_total"`
	ElectionsWon     int `metric:"afl_replica_elections_won_total"`
	ElectionsLost    int `metric:"afl_replica_elections_lost_total"`
	// VotesGranted and VotesRefused count this node's voter-side
	// decisions. A grant is durable before it is counted: the ledger
	// persists (epoch, candidate) before the reply leaves the wire.
	VotesGranted int `metric:"afl_replica_votes_total"`
	VotesRefused int `metric:"afl_replica_votes_refused_total"`
	// HandlerPanics counts panics recovered in replication connection
	// handlers; the panicking connection is dropped, the node serves on.
	HandlerPanics int `metric:"afl_replica_handler_panics_total"`
}

// subscriber is one attached standby on the primary side. The record
// channel is buffered; onCommit never blocks on a slow standby — it
// marks the subscriber overflowed instead, which forces that standby to
// reconnect and resynchronize.
type subscriber struct {
	ch       chan *transport.ReplRecord
	overflow bool
	acked    uint64
}

// Node is one member of a replicated root group. Create with NewNode,
// start with Serve (blocks like Root.Serve), stop with Close.
type Node struct {
	cfg  Config
	root *topology.Root

	mu          sync.Mutex
	role        Role
	lastSeq     uint64 // newest committed record seq (primary side)
	primarySeq  uint64 // primary's advertised newest seq (standby side)
	lastHeard   time.Time
	dirty       bool // standby apply failed; next hello demands a snapshot
	subs        map[*subscriber]struct{}
	ring        []*transport.ReplRecord
	ringBase    uint64 // seq of ring[0]; meaningless while the ring is empty
	stats       Stats
	closed      bool
	standbyConn net.Conn // current upstream session, closed on promote/Close
	rng         *rand.Rand

	ledger       *voteLedger
	quorum       int       // grants needed to promote; <= 1 selects lease-only promotion
	uplinks      []string  // Upstreams ∪ VotePeers: the standby's dial rotation
	nextElection time.Time // candidacy backoff; separate from lastHeard so a lost election never reads as a live primary
	epochHint    uint64    // highest epoch a refusing voter advertised; the next candidacy jumps above it

	// promotingHook, when non-nil, runs after the node enters
	// RolePromoting and before the won epoch is persisted — the test seam
	// for killing a candidate mid-promotion.
	promotingHook func()

	replLis net.Listener
	// repl serves replLis (nil without one): one handleStandby per
	// connection, done when stop closes. sessions counts the attached
	// standby sessions, which Close lets write their Goodbye before it
	// closes repl.
	repl     *transport.Acceptor
	sessions sync.WaitGroup
	promoted chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewNode builds a replication node around a root. The root must not be
// serving yet: NewNode installs the commit tap and the peer list and, for
// a standby, holds the root (Root.HoldUntilPromoted) so it serves no edge
// until its promoted epoch is durable. With a ReplListen address the
// replication listener is bound immediately so ReplAddr is usable before
// Serve.
func NewNode(cfg Config, root *topology.Root) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, errors.New("replica: NewNode: nil root")
	}
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:      cfg,
		root:     root,
		subs:     make(map[*subscriber]struct{}),
		rng:      randx.New(cfg.Seed),
		promoted: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	if len(cfg.Upstreams) == 0 {
		n.role = RolePrimary
		n.lastSeq = uint64(root.Version())
	} else {
		n.role = RoleStandby
	}
	ledger, err := newVoteLedger(cfg.VotePath)
	if err != nil {
		return nil, err
	}
	n.ledger = ledger
	n.quorum = cfg.QuorumSize
	if n.quorum == 0 && len(cfg.VotePeers) > 0 {
		n.quorum = (len(cfg.VotePeers)+1)/2 + 1
	}
	if n.quorum < 1 {
		n.quorum = 1
	}
	// Standbys rotate over every known replication address: the configured
	// upstreams first, then the vote mesh, so an election loser finds
	// whichever peer won.
	seen := make(map[string]struct{})
	for _, addr := range append(append([]string{}, cfg.Upstreams...), cfg.VotePeers...) {
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		n.uplinks = append(n.uplinks, addr)
	}
	switch {
	case cfg.ReplListener != nil:
		n.replLis = cfg.ReplListener
	case cfg.ReplListen != "":
		lis, err := net.Listen("tcp", cfg.ReplListen)
		if err != nil {
			return nil, fmt.Errorf("replica: listen %s: %w", cfg.ReplListen, err)
		}
		n.replLis = lis
	}
	if n.replLis != nil {
		n.repl = transport.NewAcceptor(n.stop, n.handleStandby, n.notePanic)
	}
	root.SetOnCommit(n.onCommit)
	// Peers are in no checkpoint or record, so a standby's copy survives
	// snapshot installs and is relayed from its first reply as primary.
	if len(cfg.Peers) > 0 {
		root.SetPeers(cfg.Peers)
	}
	if n.role == RoleStandby {
		root.HoldUntilPromoted()
	}
	n.noteRole(n.role)
	n.noteEpoch()
	n.noteQuorum()
	if cfg.Obsv != nil {
		obsv.Mirror(cfg.Obsv.Registry, "", n.Stats)
	}
	return n, nil
}

// ReplAddr returns the replication listener address (empty when no
// listener is configured).
func (n *Node) ReplAddr() string {
	if n.replLis == nil {
		return ""
	}
	return n.replLis.Addr().String()
}

// Role returns the node's current role. A root fenced behind the node's
// back (an edge proved a newer epoch) reads as RoleFenced.
func (n *Node) Role() Role {
	n.mu.Lock()
	r := n.role
	n.mu.Unlock()
	if r != RoleFenced && n.root.Fenced() {
		return RoleFenced
	}
	return r
}

// Epoch returns the fencing epoch the node's root holds.
func (n *Node) Epoch() uint64 { return n.root.Epoch() }

// Stats returns the lifetime replication counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Health reports the wrapped root's health decorated with the
// replication role and epoch.
func (n *Node) Health() obsv.Health {
	h := n.root.Health()
	h.Role = n.Role().String()
	h.Epoch = n.root.Epoch()
	return h
}

// Serve runs the node until Close (or until its root is fenced). edgeLis
// is the edge-facing listener, served by the root on every role: a
// standby's root is held and drops each edge unanswered, so edges rotate
// to the live primary, until promotion releases it. The replication
// listener answers from the start too: a primary accepts standbys, and
// any group member must answer vote exchanges for elections to make
// quorum. A Serve after Close closes edgeLis and returns at once.
func (n *Node) Serve(edgeLis net.Listener) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return edgeLis.Close()
	}
	// Started under n.mu, so Close's wg.Wait never races the Add.
	if n.repl != nil {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = n.repl.Serve(n.replLis) // a failed replication listener leaves the edges served
		}()
	}
	if n.role == RoleStandby {
		n.wg.Add(2)
		go n.standbyLoop()
		go n.watchdog()
	}
	n.mu.Unlock()

	err := n.root.Serve(edgeLis)
	if n.root.Fenced() {
		n.noteFenced()
	}
	return err
}

// Close stops the node. Each attached standby session writes its Goodbye
// first; then the replication listener and its connections, any standby
// session of this node's own, the wrapped root, and every helper
// goroutine stop.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	conn := n.standbyConn
	n.mu.Unlock()
	n.stopOnce.Do(func() { close(n.stop) })
	n.sessions.Wait()
	if n.repl != nil {
		// The core closes the listener only once Serve has handed it over.
		_ = n.replLis.Close()
		_ = n.repl.Close()
	}
	if conn != nil {
		_ = conn.Close()
	}
	err := n.root.Close()
	n.wg.Wait()
	return err
}

// noteFenced flips the node into RoleFenced (idempotent): its root stops
// serving edges and stop ends every standby session and helper loop, so a
// demoted primary streams no stale record. The replication listener stays
// up until Close, so a fenced node keeps answering votes; decideVote
// refuses any epoch its root has already seen.
func (n *Node) noteFenced() {
	n.root.Fence()
	n.mu.Lock()
	already := n.role == RoleFenced
	n.role = RoleFenced
	n.mu.Unlock()
	if !already {
		n.noteRole(RoleFenced)
	}
	n.stopOnce.Do(func() { close(n.stop) })
}

// notePanic counts a panic the replication core recovered.
func (n *Node) notePanic() {
	n.mu.Lock()
	n.stats.HandlerPanics++
	n.mu.Unlock()
}

// dial opens one replication connection.
func (n *Node) dial(addr string) (net.Conn, error) {
	if n.cfg.Dial != nil {
		return n.cfg.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, n.cfg.WriteTimeout)
}

// sleepBackoff pauses before reconnect attempt k, reporting false when
// the node stopped or promoted while sleeping.
func (n *Node) sleepBackoff(k int) bool {
	n.mu.Lock()
	jitter := 0.5 + n.rng.Float64()
	n.mu.Unlock()
	delay := transport.BackoffDelay(jitter, n.cfg.RetryBaseDelay, n.cfg.RetryMaxDelay, k)
	select {
	case <-n.stop:
		return false
	case <-n.promoted:
		return false
	case <-time.After(delay):
		return true
	}
}

// noteRole mirrors the role into the afl_replica_role gauge
// (0 primary, 1 standby, 2 promoting, 3 fenced).
func (n *Node) noteRole(r Role) {
	if n.cfg.Obsv == nil {
		return
	}
	n.cfg.Obsv.Registry.Gauge("afl_replica_role").Set(r.gaugeValue())
}

// noteEpoch mirrors the root's fencing epoch into afl_replica_epoch.
func (n *Node) noteEpoch() {
	if n.cfg.Obsv == nil {
		return
	}
	n.cfg.Obsv.Registry.Gauge("afl_replica_epoch").Set(float64(n.root.Epoch()))
}

// noteQuorum mirrors the configured quorum size into
// afl_replica_quorum_size (1 means lease-only promotion).
func (n *Node) noteQuorum() {
	if n.cfg.Obsv == nil {
		return
	}
	n.cfg.Obsv.Registry.Gauge("afl_replica_quorum_size").Set(float64(n.quorum))
}

// noteLag mirrors the replication lag in records into
// afl_replica_lag_records: how far behind the primary this standby is,
// or — on the primary — how far behind the slowest attached standby is.
func (n *Node) noteLag(lag uint64) {
	if n.cfg.Obsv == nil {
		return
	}
	n.cfg.Obsv.Registry.Gauge("afl_replica_lag_records").Set(float64(lag))
}
