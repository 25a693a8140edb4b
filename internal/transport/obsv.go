package transport

import (
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
)

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

// newServerObs wires a hub to a server: the ServerStats mirror, the
// round-latency and batch-size histograms, and the per-code NACK
// counters. The mirror calls s.Stats() on the scraping goroutine —
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
	obsv.Mirror(hub.Registry, "", s.Stats)
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
