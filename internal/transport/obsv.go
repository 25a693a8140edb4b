package transport

import (
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
)

// statMirror maps every /metrics counter of the afl_server family to the
// ServerStats field it mirrors. The mirroring runs as an OnCollect
// callback (see newServerObs), so a scrape always reflects Server.Stats()
// exactly — the table is the single source of truth shared by the
// collector, the integration tests and the README's field-mapping docs.
// A reflection test asserts the table covers every ServerStats field.
var statMirror = []struct {
	Name string
	Get  func(st *ServerStats) int
}{
	{"afl_rounds_total", func(st *ServerStats) int { return st.Rounds }},
	{"afl_accepted_total", func(st *ServerStats) int { return st.Accepted }},
	{"afl_deferred_total", func(st *ServerStats) int { return st.Deferred }},
	{"afl_rejected_total", func(st *ServerStats) int { return st.Rejected }},
	{"afl_dropped_stale_total", func(st *ServerStats) int { return st.DroppedStale }},
	{"afl_dropped_malformed_total", func(st *ServerStats) int { return st.DroppedMalformed }},
	{"afl_dropped_oversize_total", func(st *ServerStats) int { return st.DroppedOversize }},
	{"afl_updates_received_total", func(st *ServerStats) int { return st.UpdatesReceived }},
	{"afl_watchdog_rounds_total", func(st *ServerStats) int { return st.WatchdogRounds }},
	{"afl_clients_connected", func(st *ServerStats) int { return st.ClientsConnected }},
	{"afl_reconnects_total", func(st *ServerStats) int { return st.Reconnects }},
	{"afl_handler_panics_total", func(st *ServerStats) int { return st.HandlerPanics }},
	{"afl_checkpoints_total", func(st *ServerStats) int { return st.Checkpoints }},
	{"afl_dropped_shed_total", func(st *ServerStats) int { return st.DroppedShed }},
	{"afl_dropped_rate_limited_total", func(st *ServerStats) int { return st.DroppedRateLimited }},
	{"afl_dropped_quarantined_total", func(st *ServerStats) int { return st.DroppedQuarantined }},
	{"afl_quarantined_clients_total", func(st *ServerStats) int { return st.QuarantinedClients }},
	{"afl_expired_leases_total", func(st *ServerStats) int { return st.ExpiredLeases }},
	{"afl_heartbeats_total", func(st *ServerStats) int { return st.Heartbeats }},
	{"afl_nacks_sent_total", func(st *ServerStats) int { return st.NacksSent }},
}

// nackCodes enumerates every NackCode for per-code counter registration.
var nackCodes = []NackCode{
	NackRateLimited, NackOverloaded, NackQuarantined, NackDraining, NackMalformed,
}

// serverObs holds the transport's event-driven metric handles. A nil
// *serverObs (observability disabled) is valid: every method nil-checks
// the receiver, so instrumentation sites need no conditionals.
type serverObs struct {
	hub          *obsv.Hub
	roundLatency *obsv.Histogram
	batchSize    *obsv.Histogram
	nacks        map[NackCode]*obsv.Counter
}

// newServerObs wires a hub to a server: the stats-mirror collector, the
// round-latency and batch-size histograms, and the per-code NACK
// counters. The collector calls s.Stats() on the scraping goroutine —
// never while s.mu is held by the scraper itself — so the mirrored
// counters are exactly the values Stats() returns at scrape time.
func newServerObs(hub *obsv.Hub, s *Server) *serverObs {
	o := &serverObs{
		hub:          hub,
		roundLatency: hub.Registry.Histogram("afl_round_latency_seconds", obsv.DefLatencyBuckets),
		batchSize:    hub.Registry.Histogram("afl_round_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
		nacks:        make(map[NackCode]*obsv.Counter, len(nackCodes)),
	}
	for _, code := range nackCodes {
		o.nacks[code] = hub.Registry.Counter(`afl_nacks_total{code="` + code.String() + `"}`)
	}
	mirror := make([]*obsv.Counter, len(statMirror))
	for i, m := range statMirror {
		mirror[i] = hub.Registry.Counter(m.Name)
	}
	hub.Registry.OnCollect(func() {
		st := s.Stats()
		for i, m := range statMirror {
			mirror[i].Set(uint64(m.Get(&st)))
		}
	})
	return o
}

// noteNack counts one typed refusal actually sent to a client. Called
// from connection handlers outside s.mu.
func (o *serverObs) noteNack(code NackCode) {
	if o == nil {
		return
	}
	if c := o.nacks[code]; c != nil {
		c.Inc()
	}
}

// roundCommitted records one committed aggregation round: commit latency
// (drain to model-apply) and batch composition, as a histogram sample
// each plus one trace record. Called outside s.mu.
func (o *serverObs) roundCommitted(version int, latency time.Duration, batch, accepted, deferred, rejected int) {
	if o == nil {
		return
	}
	o.roundLatency.Observe(latency.Seconds())
	o.batchSize.Observe(float64(batch))
	o.hub.Tracer.Record(obsv.Record{
		Kind:         obsv.KindRound,
		Round:        version,
		Batch:        batch,
		Accepted:     accepted,
		Deferred:     deferred,
		Rejected:     rejected,
		LatencyNanos: int64(latency),
	})
}

// wireObsv attaches the hub's sinks to the server's buffer and filter
// (when the filter supports observation) and builds the serverObs. Runs
// once from NewServer, after any checkpoint restore, before the server
// is shared with any goroutine.
func (s *Server) wireObsv(hub *obsv.Hub) {
	s.obs = newServerObs(hub, s)
	s.buffer.SetObserver(obsv.NewBufferSink(hub))
	if of, ok := s.engine.Filter().(fl.ObservableFilter); ok {
		of.SetObserver(obsv.NewFilterSink(hub))
	}
}

// Draining reports whether a graceful drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Finished reports whether the deployment has completed its rounds (or
// a drain flushed the final one).
func (s *Server) Finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}
