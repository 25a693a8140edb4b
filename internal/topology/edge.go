package topology

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fence"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// Edge uplink defaults.
const (
	defaultUplinkRetryBase  = 50 * time.Millisecond
	defaultUplinkRetryMax   = 2 * time.Second
	defaultMaxPendingBatch  = 64
	defaultUplinkHeartbeat  = 500 * time.Millisecond
	defaultUplinkIOTimeout  = 30 * time.Second
	defaultUplinkMaxMsgSize = 64 << 20
)

// EdgeConfig parameterizes one edge aggregator of a two-tier deployment.
type EdgeConfig struct {
	// EdgeID identifies this edge to the root (unique per deployment,
	// >= 0).
	EdgeID int
	// RootAddr is the root server's upstream listen address.
	RootAddr string
	// ClientAddr is the client-facing address advertised to the root for
	// the shard map. It must be the address clients can actually dial —
	// typically the listener address passed to Serve.
	ClientAddr string
	// Server configures the edge's client-facing transport server. The
	// OnRoundCommitted hook is owned by the edge (it feeds the uplink) and
	// must be left nil.
	Server transport.ServerConfig
	// UplinkReadTimeout / UplinkWriteTimeout bound each blocking I/O
	// operation on the root link (0 selects 30s).
	UplinkReadTimeout  time.Duration
	UplinkWriteTimeout time.Duration
	// UplinkMaxMessageBytes caps a single decoded root reply (0 selects
	// 64 MiB).
	UplinkMaxMessageBytes int64
	// RetryBaseDelay / RetryMaxDelay pace the uplink's exponential
	// backoff-plus-jitter reconnects (0 selects 50ms / 2s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// HeartbeatEvery is the idle-link heartbeat interval keeping the
	// root-side lease alive between batches (0 selects 500ms). Set it well
	// below the root's EdgeLeaseDuration.
	HeartbeatEvery time.Duration
	// MaxPendingBatches bounds the degraded-mode batch buffer: an edge cut
	// off from its root keeps committing local rounds, and once the buffer
	// is full the oldest — stalest — batch is shed to admit the new one
	// (0 selects 64).
	MaxPendingBatches int
	// UplinkCodec selects the uplink wire codec (zero = gob, the legacy
	// stream). transport.CodecBinary negotiates the binary frame envelope
	// via the connection preamble; the root sniffs and answers in kind,
	// so mixed fleets of gob and binary edges coexist on one root.
	UplinkCodec transport.Codec
	// Dial overrides how the uplink connects (nil = plain TCP). Tests plug
	// in transport.FaultDialer to run the edge through a flaky network.
	Dial func(addr string) (net.Conn, error)
	// Seed drives the uplink's backoff jitter.
	Seed int64
	// Obsv, when non-nil, attaches per-edge labeled metrics: uplink
	// health, pending-buffer depth, batches sent/shed, handoffs merged.
	Obsv *obsv.Hub
}

// EdgeStats summarizes an edge's upstream behaviour (the client-facing
// side is covered by the embedded transport server's own ServerStats).
// Each field is mirrored on /metrics under its metric tag with the
// edge's {edge="N"} label (obsv.Mirror), so a scrape equals Stats().
type EdgeStats struct {
	// BatchesCommitted counts local rounds committed (and therefore
	// enqueued for the root); BatchesSent counts transmissions including
	// replays; BatchesAcked counts distinct batches the root acknowledged;
	// BatchesShed counts batches dropped oldest-first because the
	// degraded-mode buffer was full.
	BatchesCommitted int `metric:"afl_edge_batches_committed_total"`
	BatchesSent      int `metric:"afl_edge_batches_sent_total"`
	BatchesAcked     int `metric:"afl_edge_batches_acked_total"`
	BatchesShed      int `metric:"afl_edge_batches_shed_total"`
	// UplinkSessions counts established root sessions (the first one and
	// every reconnect); UplinkFailures counts failed dials and broken
	// sessions.
	UplinkSessions int `metric:"afl_edge_uplink_sessions_total"`
	UplinkFailures int `metric:"afl_edge_uplink_failures_total"`
	// HandoffsMerged counts dead peers' filter snapshots merged into the
	// local filter; HandoffErrors counts handoffs that failed to decode or
	// merge.
	HandoffsMerged int `metric:"afl_edge_handoffs_merged_total"`
	HandoffErrors  int `metric:"afl_edge_handoff_errors_total"`
	// SnapshotErrors counts local filter snapshots that failed (the batch
	// is forwarded without detection state).
	SnapshotErrors int `metric:"afl_edge_snapshot_errors_total"`
	// UplinkRehomes counts sessions established with a different root
	// than the previous session — the edge found the promoted standby
	// through the relayed peer list. FencedRoots counts NackFenced
	// replies received: stale primaries this edge refused to feed
	// because it had already seen a newer epoch.
	UplinkRehomes int `metric:"afl_edge_uplink_rehomes_total"`
	FencedRoots   int `metric:"afl_edge_fenced_roots_total"`
}

// Edge is one edge aggregator: a full transport server facing clients,
// plus an uplink that forwards every committed batch to the root, adopts
// the root's global model, relays shard-map pushes to clients and merges
// filter-state handoffs. Create with NewEdge, start with Serve.
type Edge struct {
	cfg    EdgeConfig
	server *transport.Server

	mu        sync.Mutex
	pending   []*transport.BatchMsg
	nextBatch uint64
	linkUp    bool
	rootDone  bool
	shardSeen int
	stats     EdgeStats
	// epoch is the highest fencing epoch seen in any root reply; it rides
	// on every request so stale primaries fence themselves. peers is the
	// learned root peer list (replicated deployments); the uplink rotates
	// targetIdx through it when the current root stops answering.
	epoch      fence.Epoch
	peers      []string
	peersSeen  int
	targetIdx  int
	lastTarget string

	notify chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	rng    *rand.Rand
	label  string
}

// NewEdge builds an edge aggregator. filter/combiner parameterize the
// edge's local AsyncFilter pass exactly as for transport.NewServer.
func NewEdge(cfg EdgeConfig, filter fl.Filter, combiner fl.Combiner) (*Edge, error) {
	if cfg.EdgeID < 0 {
		return nil, fmt.Errorf("topology: EdgeConfig: EdgeID = %d, need >= 0", cfg.EdgeID)
	}
	if cfg.RootAddr == "" {
		return nil, errors.New("topology: EdgeConfig: empty RootAddr")
	}
	if cfg.Server.OnRoundCommitted != nil {
		return nil, errors.New("topology: EdgeConfig: Server.OnRoundCommitted is owned by the edge")
	}
	if cfg.UplinkCodec != transport.CodecGob && cfg.UplinkCodec != transport.CodecBinary {
		return nil, fmt.Errorf("topology: EdgeConfig: unknown UplinkCodec %v", cfg.UplinkCodec)
	}
	if cfg.UplinkReadTimeout == 0 {
		cfg.UplinkReadTimeout = defaultUplinkIOTimeout
	}
	if cfg.UplinkWriteTimeout == 0 {
		cfg.UplinkWriteTimeout = defaultUplinkIOTimeout
	}
	if cfg.UplinkMaxMessageBytes == 0 {
		cfg.UplinkMaxMessageBytes = defaultUplinkMaxMsgSize
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = defaultUplinkRetryBase
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = defaultUplinkRetryMax
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = defaultUplinkHeartbeat
	}
	if cfg.MaxPendingBatches <= 0 {
		cfg.MaxPendingBatches = defaultMaxPendingBatch
	}
	e := &Edge{
		cfg:       cfg,
		nextBatch: 1,
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		rng:       randx.New(cfg.Seed + int64(cfg.EdgeID)*7919),
		label:     "{edge=" + strconv.Quote(strconv.Itoa(cfg.EdgeID)) + "}",
	}
	cfg.Server.OnRoundCommitted = e.commitRound
	server, err := transport.NewServer(cfg.Server, filter, combiner)
	if err != nil {
		return nil, err
	}
	e.server = server
	if cfg.Obsv != nil {
		obsv.Mirror(cfg.Obsv.Registry, e.label, e.Stats)
	}
	return e, nil
}

// Server exposes the edge's client-facing transport server (stats,
// drain, final params).
func (e *Edge) Server() *transport.Server { return e.server }

// Stats returns the edge's upstream counters.
func (e *Edge) Stats() EdgeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// LinkUp reports whether the root link is currently established.
func (e *Edge) LinkUp() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.linkUp
}

// Health reports the edge's lifecycle state for /healthz: an edge whose
// root link is down is Degraded — still serving clients (HTTP 200), but
// partition-tolerant rather than healthy.
func (e *Edge) Health() obsv.Health {
	e.mu.Lock()
	degraded := !e.linkUp && !e.rootDone
	e.mu.Unlock()
	return obsv.Health{
		Degraded: degraded,
		Restored: e.server.Restored(),
		Rounds:   e.server.Version(),
	}
}

// Serve starts the uplink and serves clients on lis until the edge's
// rounds complete or Close is called.
func (e *Edge) Serve(lis net.Listener) error {
	e.mu.Lock()
	if e.cfg.ClientAddr == "" {
		e.cfg.ClientAddr = lis.Addr().String()
	}
	e.mu.Unlock()
	e.wg.Add(1)
	go e.uplink()
	return e.server.Serve(lis)
}

// Close stops the uplink and the client-facing server.
func (e *Edge) Close() error {
	e.mu.Lock()
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	e.mu.Unlock()
	err := e.server.Close()
	e.wg.Wait()
	return err
}

// commitRound is the transport server's OnRoundCommitted hook: it turns
// one committed local round into an upstream batch. It runs while the
// round slot is held (filter quiescent), which is what makes the filter
// snapshot attached here consistent with exactly this round.
func (e *Edge) commitRound(version int, accepted []*fl.Update) {
	if len(accepted) == 0 {
		return
	}
	snap, err := snapshotFilter(e.server.Filter())
	if err != nil {
		e.mu.Lock()
		e.stats.SnapshotErrors++
		e.mu.Unlock()
		snap = nil
	}
	e.mu.Lock()
	batch := &transport.BatchMsg{
		BatchID:     e.nextBatch,
		EdgeVersion: version,
		Updates:     accepted,
		FilterState: snap,
	}
	e.nextBatch++
	e.pending = append(e.pending, batch)
	e.stats.BatchesCommitted++
	// Degraded-mode bound: shed the oldest (stalest) batches first. The
	// shed updates were already applied to the edge's local model — what
	// is lost is only their contribution to the root's view.
	for len(e.pending) > e.cfg.MaxPendingBatches {
		e.pending = e.pending[1:]
		e.stats.BatchesShed++
	}
	e.noteGaugeLocked("afl_edge_pending_batches", float64(len(e.pending)))
	e.mu.Unlock()

	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// uplink is the edge->root connection loop: dial with exponential
// backoff plus jitter, run a session, reconnect on any failure until the
// edge closes or the root reports the deployment done.
func (e *Edge) uplink() {
	defer e.wg.Done()
	attempt := 0
	for {
		select {
		case <-e.stop:
			return
		default:
		}
		addr, conn, err := e.dialRoot()
		if err != nil {
			attempt++
			e.noteUplinkFailure()
			e.rotateTarget()
			if !e.sleepBackoff(attempt) {
				return
			}
			continue
		}
		uc := transport.NewUpstreamConnCodec(conn, e.cfg.UplinkCodec, e.cfg.UplinkMaxMessageBytes, e.cfg.UplinkReadTimeout, e.cfg.UplinkWriteTimeout)
		err = e.session(uc, addr)
		_ = uc.Close()
		e.setLinkUp(false)
		if err == nil {
			// Root said Done: the fleet deployment completed; stop
			// forwarding (the edge keeps serving its own clients).
			return
		}
		select {
		case <-e.stop:
			return
		default:
		}
		attempt++
		e.noteUplinkFailure()
		// A failed session rotates to the next root peer (no-op without a
		// learned peer list): if the current root is dead for good, the
		// rotation finds the promoted standby; if it was a blip, the
		// rotation comes back around within len(peers) attempts.
		e.rotateTarget()
		if !e.sleepBackoff(attempt) {
			return
		}
	}
}

// currentTarget picks the root address to dial: the learned peer list
// when the root has published one, the configured address otherwise.
func (e *Edge) currentTarget() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.peers) == 0 {
		return e.cfg.RootAddr
	}
	return e.peers[e.targetIdx%len(e.peers)]
}

// rotateTarget advances to the next peer after a failure.
func (e *Edge) rotateTarget() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.peers) > 1 {
		e.targetIdx++
	}
}

func (e *Edge) dialRoot() (string, net.Conn, error) {
	addr := e.currentTarget()
	if e.cfg.Dial != nil {
		conn, err := e.cfg.Dial(addr)
		return addr, conn, err
	}
	conn, err := net.DialTimeout("tcp", addr, e.cfg.UplinkWriteTimeout)
	return addr, conn, err
}

// sleepBackoff pauses before reconnect attempt n, reporting false when
// the edge shut down while sleeping.
func (e *Edge) sleepBackoff(n int) bool {
	e.mu.Lock()
	jitter := 0.5 + e.rng.Float64()
	e.mu.Unlock()
	delay := transport.BackoffDelay(jitter, e.cfg.RetryBaseDelay, e.cfg.RetryMaxDelay, n)
	select {
	case <-e.stop:
		return false
	case <-time.After(delay):
		return true
	}
}

// errRootDraining distinguishes a root Goodbye (reconnect later) from a
// terminal Done.
var errRootDraining = errors.New("topology: root is draining")

// session drives one established root connection: Hello, reconcile, then
// forward pending batches in order, heartbeating while idle. It returns
// nil only when the root reports the deployment done. addr is the root
// address this session dialed, for re-homing accounting.
func (e *Edge) session(uc *transport.UpstreamConn, addr string) error {
	e.mu.Lock()
	hello := &transport.EdgeMsg{
		Hello: &transport.EdgeHello{
			EdgeID:     e.cfg.EdgeID,
			ModelDim:   len(e.cfg.Server.InitialParams),
			ClientAddr: e.cfg.ClientAddr,
			NextBatch:  e.nextBatch,
		},
		Epoch: e.epoch.Load(),
	}
	e.mu.Unlock()
	if err := uc.WriteEdge(hello); err != nil {
		return fmt.Errorf("topology: edge hello: %w", err)
	}
	reply, err := uc.ReadRoot()
	if err != nil {
		return fmt.Errorf("topology: edge hello reply: %w", err)
	}
	if err := e.handleReply(reply); err != nil {
		return err
	}
	e.setLinkUp(true)
	e.mu.Lock()
	e.stats.UplinkSessions++
	if e.lastTarget != "" && e.lastTarget != addr {
		e.stats.UplinkRehomes++
	}
	e.lastTarget = addr
	e.mu.Unlock()
	if reply.Done {
		e.setRootDone()
		return nil
	}

	// lastSent is the highest batch id transmitted this session; each
	// iteration sends the first pending batch above it. Pending is sorted
	// by id and only shrinks from the front (acks) or sheds from the front
	// (degraded overflow), so id-based tracking survives both — a fresh
	// session restarts at zero and replays everything unacknowledged in
	// order.
	lastSent := uint64(0)
	heartbeat := time.NewTimer(e.cfg.HeartbeatEvery)
	defer heartbeat.Stop()
	for {
		batch := e.nextToSend(&lastSent)
		var msg *transport.EdgeMsg
		if batch != nil {
			msg = &transport.EdgeMsg{Batch: batch}
		} else {
			select {
			case <-e.stop:
				return errors.New("topology: edge closing")
			case <-e.notify:
				continue
			case <-heartbeat.C:
				msg = &transport.EdgeMsg{Heartbeat: true}
			}
		}
		e.mu.Lock()
		msg.Epoch = e.epoch.Load()
		e.mu.Unlock()
		if err := uc.WriteEdge(msg); err != nil {
			return fmt.Errorf("topology: edge send: %w", err)
		}
		if msg.Batch != nil {
			e.mu.Lock()
			e.stats.BatchesSent++
			e.mu.Unlock()
		}
		reply, err := uc.ReadRoot()
		if err != nil {
			return fmt.Errorf("topology: edge receive: %w", err)
		}
		if err := e.handleReply(reply); err != nil {
			return err
		}
		if reply.Done {
			e.setRootDone()
			return nil
		}
		if !heartbeat.Stop() {
			select {
			case <-heartbeat.C:
			default:
			}
		}
		heartbeat.Reset(e.cfg.HeartbeatEvery)
	}
}

// nextToSend returns the first pending batch above the session's
// last-sent id, or nil when everything buffered has been transmitted.
func (e *Edge) nextToSend(lastSent *uint64) *transport.BatchMsg {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, b := range e.pending {
		if b.BatchID > *lastSent {
			*lastSent = b.BatchID
			return b
		}
	}
	return nil
}

// handleReply folds one root reply into the edge: epoch adoption, model
// adoption, ack bookkeeping, shard-map and peer-list relay, handoff
// merge. A Nack or Goodbye surfaces as an error so the session
// reconnects (and re-Hellos) after backoff.
func (e *Edge) handleReply(reply *transport.RootMsg) error {
	// Epoch adoption happens even on a Nack: a NackFenced reply proves
	// nothing about the root's own epoch, but any other reply from a
	// promoted root carries the new epoch this edge must start fencing
	// with.
	e.adoptEpoch(reply.Epoch)
	if reply.Nack == transport.NackFenced {
		// The root this edge dialed is stale — it has fenced itself and is
		// demoting. Rotate on (the uplink loop advances the target).
		e.mu.Lock()
		e.stats.FencedRoots++
		e.mu.Unlock()
		return fmt.Errorf("topology: root refused: %s (stale primary demoting)", reply.Nack)
	}
	if reply.Nack != 0 {
		return fmt.Errorf("topology: root refused: %s", reply.Nack)
	}
	if reply.Goodbye {
		return errRootDraining
	}
	if reply.Task != nil {
		if err := e.server.AdoptGlobal(reply.Task.Params); err != nil {
			return fmt.Errorf("topology: adopt root model: %w", err)
		}
	}
	e.applyAck(reply.Ack)
	if reply.Shards != nil {
		e.applyShards(reply.Shards)
	}
	if len(reply.Peers) > 0 {
		e.applyPeers(reply.Peers, reply.PeersVersion)
	}
	if len(reply.Handoff) > 0 {
		e.mergeHandoff(reply.Handoff)
	}
	return nil
}

// adoptEpoch keeps the highest fencing epoch seen in any root reply.
func (e *Edge) adoptEpoch(epoch uint64) {
	e.mu.Lock()
	if e.epoch.Raise(epoch) {
		e.noteGaugeLocked("afl_edge_root_epoch", float64(epoch))
	}
	e.mu.Unlock()
}

// applyPeers adopts a newer root peer list relayed in a reply.
func (e *Edge) applyPeers(peers []string, version int) {
	for _, p := range peers {
		if p == "" {
			log.Printf("topology: edge %d: rejecting peer list with empty address", e.cfg.EdgeID)
			return
		}
	}
	e.mu.Lock()
	if version > e.peersSeen {
		e.peersSeen = version
		e.peers = append([]string(nil), peers...)
	}
	e.mu.Unlock()
}

// Epoch returns the highest fencing epoch this edge has observed.
func (e *Edge) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch.Load()
}

// applyAck drops acknowledged batches from the pending queue and
// resynchronizes the batch counter when the root's watermark is ahead
// (this edge restarted with a fresh counter).
func (e *Edge) applyAck(ack uint64) {
	if ack == 0 {
		return
	}
	e.mu.Lock()
	for len(e.pending) > 0 && e.pending[0].BatchID <= ack {
		e.pending = e.pending[1:]
		e.stats.BatchesAcked++
	}
	if e.nextBatch <= ack {
		e.nextBatch = ack + 1
	}
	e.noteGaugeLocked("afl_edge_pending_batches", float64(len(e.pending)))
	e.mu.Unlock()
}

// applyShards relays a validated, newer shard map to this edge's clients.
func (e *Edge) applyShards(m *transport.ShardMap) {
	if err := m.Validate(); err != nil {
		log.Printf("topology: edge %d: rejecting shard map: %v", e.cfg.EdgeID, err)
		return
	}
	e.mu.Lock()
	stale := m.Version <= e.shardSeen
	if !stale {
		e.shardSeen = m.Version
	}
	e.mu.Unlock()
	if stale {
		return
	}
	e.server.SetShardAddrs(m.Addrs())
}

// mergeHandoff folds a dead peer's filter snapshot into the running local
// filter, holding the round slot so the merge cannot race a Filter call.
func (e *Edge) mergeHandoff(blob []byte) {
	merger, ok := e.server.Filter().(fl.StateMerger)
	if !ok {
		e.mu.Lock()
		e.stats.HandoffErrors++
		e.mu.Unlock()
		log.Printf("topology: edge %d: filter %T cannot merge handoffs", e.cfg.EdgeID, e.server.Filter())
		return
	}
	state, err := decodeHandoff(blob)
	if err == nil {
		e.server.WithFilterQuiescent(func() {
			err = merger.MergeState(state)
		})
	}
	e.mu.Lock()
	if err != nil {
		e.stats.HandoffErrors++
	} else {
		e.stats.HandoffsMerged++
	}
	e.mu.Unlock()
	if err != nil {
		log.Printf("topology: edge %d: handoff merge failed: %v", e.cfg.EdgeID, err)
	}
}

func (e *Edge) setLinkUp(up bool) {
	e.mu.Lock()
	e.linkUp = up
	v := 0.0
	if up {
		v = 1.0
	}
	e.noteGaugeLocked("afl_edge_uplink_up", v)
	e.mu.Unlock()
}

// RootDone reports whether the root has declared the deployment
// complete: the uplink has retired, though the edge keeps serving
// clients until Close.
func (e *Edge) RootDone() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rootDone
}

func (e *Edge) setRootDone() {
	e.mu.Lock()
	already := e.rootDone
	e.rootDone = true
	e.mu.Unlock()
	if !already {
		// The deployment is over fleet-wide: finish the local server so
		// clients get Done on their next request instead of burning their
		// reconnect budgets once the edge is closed.
		e.server.Finish()
	}
}

func (e *Edge) noteUplinkFailure() {
	e.mu.Lock()
	e.stats.UplinkFailures++
	e.mu.Unlock()
}

// noteGaugeLocked sets a per-edge labeled gauge; a no-op without an
// attached hub.
func (e *Edge) noteGaugeLocked(name string, v float64) {
	if e.cfg.Obsv != nil {
		e.cfg.Obsv.Registry.Gauge(name + e.label).Set(v)
	}
}
