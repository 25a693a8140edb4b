package asyncfilter

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/sim"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// presetModelTrainer bridges the preset-to-model mapping for the public
// Model/TrainSpecFor helpers.
func presetModelTrainer(preset string, data dataset.SyntheticConfig) (model.Config, fl.TrainerConfig) {
	return sim.PresetModelAndTrainer(preset, data)
}

// ServerConfig parameterizes a real (TCP) aggregation server.
type ServerConfig struct {
	// InitialParams seeds the global model (see InitialParams).
	InitialParams []float64
	// AggregationGoal triggers aggregation when this many updates are
	// buffered.
	AggregationGoal int
	// StalenessLimit discards updates staler than this (0 disables).
	StalenessLimit int
	// Rounds is the number of aggregations before the deployment
	// completes.
	Rounds int
	// ReadTimeout disconnects a client silent for longer than this (0
	// disables). It must cover a client's local training plus think time.
	ReadTimeout time.Duration
	// WriteTimeout bounds each model transmission to a client (0
	// disables).
	WriteTimeout time.Duration
	// MaxMessageBytes caps a single client message so a malicious client
	// cannot exhaust server memory (0 disables).
	MaxMessageBytes int64
	// RoundTimeout arms the round-progress watchdog: when the update
	// buffer has been non-empty but below AggregationGoal for this long,
	// the server aggregates the partial buffer so crashed clients cannot
	// stall a round forever (0 disables).
	RoundTimeout time.Duration
	// CheckpointPath enables durable server state: snapshots are written
	// atomically to this file, and NewServer restores from it when it
	// exists ("" disables checkpointing).
	CheckpointPath string
	// CheckpointEvery writes a snapshot every N aggregations (<= 1 means
	// every aggregation). A final snapshot is always written on Close.
	CheckpointEvery int
	// MaxPendingUpdates bounds the update buffer: when admitting one more
	// update would exceed it, the stalest buffered updates are shed first
	// (0 disables). Must be at least AggregationGoal when set.
	MaxPendingUpdates int
	// ClientRateLimit caps each client's sustained update rate in updates
	// per second via a token bucket (0 disables). Excess submissions are
	// NACKed with a retry hint rather than dropped on the floor.
	ClientRateLimit float64
	// ClientBurst is the token-bucket depth for ClientRateLimit (<= 0
	// defaults to 1): how many back-to-back updates a client may submit
	// before the sustained rate applies.
	ClientBurst int
	// LeaseDuration expires clients silent for longer than this (0
	// disables): their connection is closed and their session slot freed.
	// Any client message — update or heartbeat — renews the lease.
	LeaseDuration time.Duration
	// QuarantineAfter quarantines a client once this many consecutive
	// updates were rejected by the filter (0 disables): further updates
	// are refused without filtering until QuarantineCooldown passes, then
	// one probe update is admitted (half-open) to decide re-quarantine
	// versus rehabilitation.
	QuarantineAfter int
	// QuarantineCooldown is how long a quarantined client is refused
	// before the half-open probe (<= 0 defaults to 30s).
	QuarantineCooldown time.Duration
	// ObsvAddr, when non-empty, enables the observability layer and
	// serves live introspection on this address: /metrics (Prometheus
	// text), /trace (recent filter decisions as JSON), /healthz
	// (lifecycle state) and /debug/pprof. Use "host:0" for an ephemeral
	// port and read it back with Server.ObsvAddr. The listener survives
	// Drain (so the drained counters stay scrapeable) and closes with
	// Close ("" disables observability entirely).
	ObsvAddr string
	// TraceDepth bounds the filter-decision trace ring when ObsvAddr is
	// set (<= 0 selects the default depth).
	TraceDepth int
}

// ServerStats reports a deployment's lifetime counters. It is the
// transport layer's struct itself: each field is also a /metrics counter,
// listed in the README's observability table.
type ServerStats = transport.ServerStats

// Server runs asynchronous federated learning over TCP with an optional
// AsyncFilter guarding aggregation.
type Server struct {
	inner   *transport.Server
	metrics *Metrics
	obsvLis net.Listener
	obsvSrv *http.Server
}

// transportConfig maps the public server configuration onto the internal
// transport layer's. Shared by the flat server (NewServer) and the edge
// aggregator's client-facing server (NewEdgeServer).
func (cfg ServerConfig) transportConfig(hub *obsv.Hub) transport.ServerConfig {
	return transport.ServerConfig{
		InitialParams:      cfg.InitialParams,
		AggregationGoal:    cfg.AggregationGoal,
		StalenessLimit:     cfg.StalenessLimit,
		Rounds:             cfg.Rounds,
		ReadTimeout:        cfg.ReadTimeout,
		WriteTimeout:       cfg.WriteTimeout,
		MaxMessageBytes:    cfg.MaxMessageBytes,
		RoundTimeout:       cfg.RoundTimeout,
		CheckpointPath:     cfg.CheckpointPath,
		CheckpointEvery:    cfg.CheckpointEvery,
		MaxPendingUpdates:  cfg.MaxPendingUpdates,
		ClientRateLimit:    cfg.ClientRateLimit,
		ClientBurst:        cfg.ClientBurst,
		LeaseDuration:      cfg.LeaseDuration,
		QuarantineAfter:    cfg.QuarantineAfter,
		QuarantineCooldown: cfg.QuarantineCooldown,
		Obsv:               hub,
	}
}

// NewServer builds a TCP aggregation server. filter nil selects FedBuff
// (no defense).
func NewServer(cfg ServerConfig, filter *Filter) (*Server, error) {
	var innerFilter fl.Filter
	if filter != nil {
		innerFilter = filter.inner
	}
	var metrics *Metrics
	if cfg.ObsvAddr != "" {
		metrics = NewMetrics(cfg.TraceDepth)
	}
	s, err := transport.NewServer(cfg.transportConfig(hubOf(metrics)), innerFilter, nil)
	if err != nil {
		return nil, err
	}
	srv := &Server{inner: s, metrics: metrics}
	if cfg.ObsvAddr != "" {
		lis, err := net.Listen("tcp", cfg.ObsvAddr)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("asyncfilter: observability listener: %w", err)
		}
		srv.obsvLis = lis
		srv.obsvSrv = &http.Server{Handler: obsv.Handler(metrics.hub, func() obsv.Health {
			return obsv.Health{
				Draining: s.Draining(),
				Finished: s.Finished(),
				Restored: s.Restored(),
				Rounds:   s.Version(),
			}
		})}
		go func() { _ = srv.obsvSrv.Serve(lis) }()
	}
	return srv, nil
}

// ObsvAddr returns the bound address of the introspection listener, or
// "" when observability is disabled. With ServerConfig.ObsvAddr
// "host:0" this is where the ephemeral port landed.
func (s *Server) ObsvAddr() string {
	if s.obsvLis == nil {
		return ""
	}
	return s.obsvLis.Addr().String()
}

// Metrics returns the server's observability handle, or nil when
// ServerConfig.ObsvAddr was empty.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Serve accepts client connections until the configured rounds complete
// or Close is called.
func (s *Server) Serve(lis net.Listener) error { return s.inner.Serve(lis) }

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error { return s.inner.ListenAndServe(addr) }

// Done is closed when the configured rounds have completed.
func (s *Server) Done() <-chan struct{} { return s.inner.Done() }

// Close stops the server, disconnects all clients and tears down the
// introspection listener.
func (s *Server) Close() error {
	if s.obsvSrv != nil {
		_ = s.obsvSrv.Close()
	}
	return s.inner.Close()
}

// Drain gracefully retires the server: admissions stop (clients are told
// Goodbye so they reconnect elsewhere), the in-flight round commits, the
// remaining buffer is flushed into one final round, a final checkpoint is
// written when checkpointing is configured, and the network is torn down.
// When ctx expires first, the network is closed immediately and ctx's
// error returned while the flush and checkpoint complete in the
// background. Safe to call concurrently with Close and repeatedly.
func (s *Server) Drain(ctx context.Context) error { return s.inner.Drain(ctx) }

// FinalParams returns a copy of the current global parameters.
func (s *Server) FinalParams() []float64 { return s.inner.FinalParams() }

// Version returns the number of aggregations performed so far.
func (s *Server) Version() int { return s.inner.Version() }

// Restored reports whether this server resumed from an existing
// checkpoint rather than starting fresh.
func (s *Server) Restored() bool { return s.inner.Restored() }

// Stats returns the deployment's lifetime counters.
func (s *Server) Stats() ServerStats { return s.inner.Stats() }

// ClientOptions parameterizes a federated client.
type ClientOptions struct {
	// ID identifies the client (unique per deployment).
	ID int
	// Data is the client's local shard.
	Data *Data
	// Model must match the server's parameter dimension.
	Model ModelSpec
	// Train configures local optimization.
	Train TrainSpec
	// Attack, when non-empty, makes the client malicious (one of
	// Attacks()).
	Attack string
	// Seed drives local randomness.
	Seed int64
	// MaxRetries is the budget of consecutive failed connection attempts
	// before Run gives up; it refills whenever a connection completes a
	// training task (0 = fail on the first connection error).
	MaxRetries int
	// RetryBaseDelay seeds the exponential reconnect backoff (default
	// 50ms). Jitter is applied per attempt.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the reconnect backoff (default 2s).
	RetryMaxDelay time.Duration
	// DialTimeout bounds each connection attempt (0 = no timeout).
	DialTimeout time.Duration
	// HeartbeatInterval sends keepalive heartbeats this often while
	// connected (0 disables), renewing the server-side lease through long
	// local training. Set it well below the server's LeaseDuration.
	HeartbeatInterval time.Duration
	// Codec selects the wire codec: "" or "gob" for the legacy stream,
	// "binary" for the length-prefixed frame envelope (negotiated per
	// connection; the server answers in kind, so mixed fleets work).
	Codec string
}

// ErrServerGoodbye is returned by Client.Run when the server is draining
// and asked the client to go elsewhere; Run does not retry the same
// address.
var ErrServerGoodbye = transport.ErrServerGoodbye

// Client participates in a TCP deployment.
type Client struct {
	inner *transport.Client
}

// NewClient builds a client.
func NewClient(opts ClientOptions) (*Client, error) {
	codec, err := transport.ParseCodec(opts.Codec)
	if err != nil {
		return nil, err
	}
	c, err := transport.NewClient(transport.ClientConfig{
		ID:                opts.ID,
		Data:              dataOf(opts.Data),
		Model:             opts.Model.internal(),
		Trainer:           opts.Train.internal(),
		Attack:            attack.Config{Name: opts.Attack},
		Seed:              opts.Seed,
		MaxRetries:        opts.MaxRetries,
		RetryBaseDelay:    opts.RetryBaseDelay,
		RetryMaxDelay:     opts.RetryMaxDelay,
		DialTimeout:       opts.DialTimeout,
		HeartbeatInterval: opts.HeartbeatInterval,
		Codec:             codec,
	})
	if err != nil {
		return nil, err
	}
	return &Client{inner: c}, nil
}

// Run connects to the server at addr and participates until the server
// signals completion, reconnecting with backoff when MaxRetries allows.
// In a two-tier deployment addr is the client's home edge; if that edge
// dies the client re-homes to a survivor using the shard map it learned
// at admission.
func (c *Client) Run(addr string) error { return c.inner.Run(addr) }

// Rehomes reports how many times the client moved to a different edge
// after its home address went dark. Read it only after Run returns.
func (c *Client) Rehomes() int { return c.inner.Rehomes }

// dataOf unwraps a public Data handle (nil-safe).
func dataOf(d *Data) *dataset.Dataset {
	if d == nil {
		return nil
	}
	return d.inner
}
