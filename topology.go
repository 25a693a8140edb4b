package asyncfilter

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/replica"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// This file is the public face of the two-tier topology (DESIGN.md §12):
// edge aggregators that admit clients, run a local AsyncFilter pass and
// forward filtered batches upstream, and a root that applies each batch
// exactly once, maintains the fleet-wide model and shard map, and
// orchestrates failover when an edge dies.

// EdgeServerConfig parameterizes an edge aggregator.
type EdgeServerConfig struct {
	// EdgeID identifies this edge to the root (unique per deployment,
	// >= 0).
	EdgeID int
	// RootAddr is the root server's listen address.
	RootAddr string
	// Server configures the edge's client-facing aggregation server —
	// the same knobs as a flat deployment, including overload resilience
	// and introspection (ObsvAddr also exposes the edge's degraded
	// state on /healthz). Rounds 0 selects effectively-unbounded: the
	// root decides when the deployment is done.
	Server ServerConfig
	// HeartbeatEvery keeps the root-side lease alive on an idle uplink
	// (0 selects 500ms). Set it well below the root's EdgeLeaseDuration.
	HeartbeatEvery time.Duration
	// MaxPendingBatches bounds the degraded-mode buffer: an edge cut off
	// from its root keeps serving clients and buffering batches, shedding
	// the oldest once full (0 selects 64).
	MaxPendingBatches int
	// RetryBaseDelay / RetryMaxDelay pace the uplink's exponential
	// backoff-plus-jitter reconnects (0 selects 50ms / 2s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Seed drives the uplink's backoff jitter.
	Seed int64
	// UplinkCodec selects the uplink wire codec: "" or "gob" for the
	// legacy stream, "binary" for the length-prefixed frame envelope
	// (DESIGN.md §14). The root auto-detects per connection, so edges
	// can migrate one at a time.
	UplinkCodec string
}

// EdgeServerStats summarizes an edge's upstream behaviour; the
// client-facing side is covered by EdgeServer.ServerStats. It is the
// topology layer's struct itself: each field is also an
// afl_edge_*{edge="N"} counter, listed in the README's hierarchical
// deployment table.
type EdgeServerStats = topology.EdgeStats

// EdgeServer is an edge aggregator: a full client-facing server plus an
// uplink forwarding every committed batch to the root.
type EdgeServer struct {
	inner   *topology.Edge
	metrics *Metrics
	obsvLis net.Listener
	obsvSrv *http.Server
}

// NewEdgeServer builds an edge aggregator. filter nil forwards unfiltered
// batches (the root's filter, if any, is then the only defense).
func NewEdgeServer(cfg EdgeServerConfig, filter *Filter) (*EdgeServer, error) {
	var innerFilter fl.Filter
	if filter != nil {
		innerFilter = filter.inner
	}
	var metrics *Metrics
	if cfg.Server.ObsvAddr != "" {
		metrics = NewMetrics(cfg.Server.TraceDepth)
	}
	serverCfg := cfg.Server
	if serverCfg.Rounds == 0 {
		// The root's round budget ends the deployment; the local server
		// must outlast it.
		serverCfg.Rounds = 1 << 30
	}
	uplinkCodec, err := transport.ParseCodec(cfg.UplinkCodec)
	if err != nil {
		return nil, err
	}
	hub := hubOf(metrics)
	edge, err := topology.NewEdge(topology.EdgeConfig{
		EdgeID:            cfg.EdgeID,
		RootAddr:          cfg.RootAddr,
		Server:            serverCfg.transportConfig(hub),
		HeartbeatEvery:    cfg.HeartbeatEvery,
		MaxPendingBatches: cfg.MaxPendingBatches,
		RetryBaseDelay:    cfg.RetryBaseDelay,
		RetryMaxDelay:     cfg.RetryMaxDelay,
		Seed:              cfg.Seed,
		UplinkCodec:       uplinkCodec,
		Obsv:              hub,
	}, innerFilter, nil)
	if err != nil {
		return nil, err
	}
	srv := &EdgeServer{inner: edge, metrics: metrics}
	if cfg.Server.ObsvAddr != "" {
		lis, err := net.Listen("tcp", cfg.Server.ObsvAddr)
		if err != nil {
			_ = edge.Close()
			return nil, fmt.Errorf("asyncfilter: edge observability listener: %w", err)
		}
		srv.obsvLis = lis
		// Edge health is partition-aware: a lost uplink reports degraded
		// (200 with status "degraded"), distinct from draining (503).
		srv.obsvSrv = &http.Server{Handler: obsv.Handler(metrics.hub, edge.Health)}
		go func() { _ = srv.obsvSrv.Serve(lis) }()
	}
	return srv, nil
}

// Serve accepts client connections on lis and advertises lis's address to
// the root for the shard map, until Close or the root ends the
// deployment.
func (e *EdgeServer) Serve(lis net.Listener) error { return e.inner.Serve(lis) }

// ListenAndServe listens on addr and serves.
func (e *EdgeServer) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return e.Serve(lis)
}

// ObsvAddr returns the bound introspection address, or "" when disabled.
func (e *EdgeServer) ObsvAddr() string {
	if e.obsvLis == nil {
		return ""
	}
	return e.obsvLis.Addr().String()
}

// Version returns the edge's local round counter.
func (e *EdgeServer) Version() int { return e.inner.Server().Version() }

// LinkUp reports whether the root uplink currently has a live session.
func (e *EdgeServer) LinkUp() bool { return e.inner.LinkUp() }

// RootDone reports whether the root has declared the deployment
// complete; the edge keeps serving clients until Close.
func (e *EdgeServer) RootDone() bool { return e.inner.RootDone() }

// Stats returns the upstream counters; ServerStats returns the
// client-facing ones.
func (e *EdgeServer) Stats() EdgeServerStats { return e.inner.Stats() }

// ServerStats returns the client-facing server's lifetime counters.
func (e *EdgeServer) ServerStats() ServerStats { return e.inner.Server().Stats() }

// Close stops the edge: the uplink retires, the client listener closes
// and the introspection listener (if any) is torn down.
func (e *EdgeServer) Close() error {
	err := e.inner.Close()
	if e.obsvSrv != nil {
		_ = e.obsvSrv.Close()
	}
	return err
}

// RootServerConfig parameterizes the root of a two-tier deployment.
type RootServerConfig struct {
	// InitialParams seeds the fleet-wide global model (see
	// InitialParams).
	InitialParams []float64
	// Rounds is the number of applied edge batches before the deployment
	// completes.
	Rounds int
	// StalenessLimit discards deferred updates that have waited more than
	// this many root rounds (0 disables).
	StalenessLimit int
	// ReadTimeout bounds each blocking read from an edge connection
	// (0 disables). It must cover the edges' heartbeat interval.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply transmission (0 disables).
	WriteTimeout time.Duration
	// MaxMessageBytes caps a single decoded edge message (0 disables).
	MaxMessageBytes int64
	// EdgeLeaseDuration declares an edge dead after this much silence:
	// its clients re-home to the survivors and its filter state is handed
	// off to them (0 disables failover).
	EdgeLeaseDuration time.Duration
	// CheckpointPath makes the root durable: model, per-edge batch
	// watermarks, retained filter snapshots and queued handoffs are
	// snapshotted to this file, and a restarted root resumes from it
	// without double-counting replayed batches ("" disables).
	CheckpointPath string
	// CheckpointEvery writes a snapshot every N applied batches (<= 1
	// means every batch).
	CheckpointEvery int
	// ObsvAddr serves /metrics, /trace, /healthz and /debug/pprof on this
	// address ("" disables).
	ObsvAddr string
	// TraceDepth bounds the decision trace ring for ObsvAddr (<= 0
	// selects the default).
	TraceDepth int
	// Replication, when non-nil, makes this root one node of a replicated
	// primary/standby group (DESIGN.md §13). /healthz then reports the
	// node's role and fencing epoch.
	Replication *ReplicationConfig
}

// ReplicationConfig turns a root into one node of a primary/standby
// replication group: a primary streams every committed batch to attached
// standbys; a standby mirrors the primary and promotes itself — with a
// fenced epoch — once the primary's lease expires. With VotePeers set
// the group instead elects the new primary by majority vote, so a
// minority partition refuses to serve (DESIGN.md §13).
type ReplicationConfig struct {
	// NodeID identifies this node in the group (unique, >= 0).
	NodeID int
	// ReplListen is the replication channel's listen address. The primary
	// needs it to accept standbys; standbys bind it too so they can serve
	// the next standby generation after promotion ("" disables).
	ReplListen string
	// ReplListener, when non-nil, is a pre-bound replication listener
	// used instead of ReplListen. Quorum groups bind every member's
	// listener first so the full VotePeers address mesh is known before
	// any node is constructed.
	ReplListener net.Listener
	// Upstreams lists the primary's replication addresses to mirror from.
	// Empty means this node starts as the primary.
	Upstreams []string
	// Peers is the edge-facing address of every replica, relayed to edges
	// so they can find the promoted standby when the primary dies.
	Peers []string
	// VotePeers lists the replication addresses of every OTHER group
	// member (self excluded). Non-empty switches promotion from bare
	// lease expiry to quorum elections: an expired standby becomes a
	// candidate and only serves after a majority of the group grants its
	// epoch, so a minority partition can never produce a second primary.
	VotePeers []string
	// QuorumSize is the number of distinct vote grants (the candidate's
	// own included) required to promote. 0 selects a majority of the
	// group implied by VotePeers; values above the group size are
	// rejected as unwinnable.
	QuorumSize int
	// VotePath persists this node's vote ledger so a crashed-and-
	// restarted voter cannot grant the same epoch twice ("" keeps the
	// ledger in memory only — fine for tests, not for a durable group).
	VotePath string
	// Lease is how long a standby tolerates primary silence before
	// promoting itself (0 selects 2s); Heartbeat is the primary's idle
	// push interval (0 selects Lease/4).
	Lease, Heartbeat time.Duration
	// MaxMessageBytes caps a decoded replication message (0 disables).
	MaxMessageBytes int64
	// Seed drives the standby's reconnect jitter.
	Seed int64
	// Codec selects the replication-link wire codec: "" or "gob" for the
	// legacy stream, "binary" for the length-prefixed frame envelope
	// (DESIGN.md §14). The primary auto-detects per connection, so a
	// group can migrate one node at a time.
	Codec string
}

// RootServerStats reports the root's lifetime counters. It is the
// topology layer's struct itself; the root's /metrics series are
// listed in the README's hierarchical deployment table.
type RootServerStats = topology.RootStats

// RootServer is the top tier of a two-tier deployment — standalone, or
// one node of a replicated group when RootServerConfig.Replication is
// set.
type RootServer struct {
	inner   *topology.Root
	node    *replica.Node
	metrics *Metrics
	obsvLis net.Listener
	obsvSrv *http.Server
}

// NewRootServer builds a root server. filter nil trusts the edges'
// filtering entirely (pass-through); a non-nil filter re-screens every
// forwarded batch.
func NewRootServer(cfg RootServerConfig, filter *Filter) (*RootServer, error) {
	var innerFilter fl.Filter
	if filter != nil {
		innerFilter = filter.inner
	}
	var metrics *Metrics
	if cfg.ObsvAddr != "" {
		metrics = NewMetrics(cfg.TraceDepth)
	}
	root, err := topology.NewRoot(topology.RootConfig{
		InitialParams:     cfg.InitialParams,
		Rounds:            cfg.Rounds,
		StalenessLimit:    cfg.StalenessLimit,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		MaxMessageBytes:   cfg.MaxMessageBytes,
		EdgeLeaseDuration: cfg.EdgeLeaseDuration,
		CheckpointPath:    cfg.CheckpointPath,
		CheckpointEvery:   cfg.CheckpointEvery,
		Obsv:              hubOf(metrics),
	}, innerFilter, nil)
	if err != nil {
		return nil, err
	}
	srv := &RootServer{inner: root, metrics: metrics}
	if rc := cfg.Replication; rc != nil {
		replCodec, err := transport.ParseCodec(rc.Codec)
		if err != nil {
			_ = root.Close()
			return nil, err
		}
		node, err := replica.NewNode(replica.Config{
			NodeID:          rc.NodeID,
			ReplListen:      rc.ReplListen,
			ReplListener:    rc.ReplListener,
			Upstreams:       rc.Upstreams,
			Peers:           rc.Peers,
			VotePeers:       rc.VotePeers,
			QuorumSize:      rc.QuorumSize,
			VotePath:        rc.VotePath,
			Lease:           rc.Lease,
			Heartbeat:       rc.Heartbeat,
			MaxMessageBytes: rc.MaxMessageBytes,
			Seed:            rc.Seed,
			Codec:           replCodec,
			Obsv:            hubOf(metrics),
		}, root)
		if err != nil {
			_ = root.Close()
			return nil, err
		}
		srv.node = node
	}
	if cfg.ObsvAddr != "" {
		lis, err := net.Listen("tcp", cfg.ObsvAddr)
		if err != nil {
			_ = srv.closeInner()
			return nil, fmt.Errorf("asyncfilter: root observability listener: %w", err)
		}
		srv.obsvLis = lis
		// A replicated node's health carries its role and fencing epoch.
		health := root.Health
		if srv.node != nil {
			health = srv.node.Health
		}
		srv.obsvSrv = &http.Server{Handler: obsv.Handler(metrics.hub, health)}
		go func() { _ = srv.obsvSrv.Serve(lis) }()
	}
	return srv, nil
}

// closeInner tears down the node (when replicated) or the bare root.
func (r *RootServer) closeInner() error {
	if r.node != nil {
		return r.node.Close()
	}
	return r.inner.Close()
}

// Serve accepts edge connections until Close is called; once the
// configured rounds complete (Done) it tells each edge so. A replicated
// standby serves lis from the start but drops each edge unanswered, so
// edges rotate to the live primary, until its promoted epoch is durable.
// lis may be any net.Listener, with or without deadline support.
func (r *RootServer) Serve(lis net.Listener) error {
	if r.node != nil {
		return r.node.Serve(lis)
	}
	return r.inner.Serve(lis)
}

// ListenAndServe listens on addr and serves.
func (r *RootServer) ListenAndServe(addr string) error {
	if r.node == nil {
		return r.inner.ListenAndServe(addr)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("asyncfilter: listen: %w", err)
	}
	return r.Serve(lis)
}

// Role reports a replicated node's current role ("primary", "standby",
// "promoting" or "fenced"); empty for an unreplicated root.
func (r *RootServer) Role() string {
	if r.node == nil {
		return ""
	}
	return r.node.Role().String()
}

// Epoch reports the fencing epoch (0 for an unreplicated root or a
// first-generation primary).
func (r *RootServer) Epoch() uint64 {
	if r.node == nil {
		return 0
	}
	return r.node.Epoch()
}

// ReplAddr returns the bound replication listener address, or "" when
// replication is disabled or has no listener.
func (r *RootServer) ReplAddr() string {
	if r.node == nil {
		return ""
	}
	return r.node.ReplAddr()
}

// ObsvAddr returns the bound introspection address, or "" when disabled.
func (r *RootServer) ObsvAddr() string {
	if r.obsvLis == nil {
		return ""
	}
	return r.obsvLis.Addr().String()
}

// Done is closed when the configured rounds have completed.
func (r *RootServer) Done() <-chan struct{} { return r.inner.Done() }

// Version returns the number of edge batches applied so far.
func (r *RootServer) Version() int { return r.inner.Version() }

// FinalParams returns a copy of the fleet-wide global parameters.
func (r *RootServer) FinalParams() []float64 { return r.inner.FinalParams() }

// Restored reports whether this root resumed from an existing
// checkpoint.
func (r *RootServer) Restored() bool { return r.inner.Restored() }

// Stats returns the root's lifetime counters.
func (r *RootServer) Stats() RootServerStats { return r.inner.Stats() }

// Close stops the root without marking the deployment finished: edges
// treat a closed root as a partition and keep buffering, so a restarted
// root (same CheckpointPath) resumes the deployment.
func (r *RootServer) Close() error {
	err := r.closeInner()
	if r.obsvSrv != nil {
		_ = r.obsvSrv.Close()
	}
	return err
}
