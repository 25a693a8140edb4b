package transport

import (
	"net"
	"time"
)

// clientSession is the server-side identity of one client across however
// many TCP connections it opens. A client that reconnects after a network
// fault resumes its existing session: its Hello weight is not
// double-counted and the stale connection is torn down so at most one
// handler speaks for a client ID at a time. All fields besides id are
// guarded by Server.mu.
type clientSession struct {
	id         int
	numSamples int
	// conn is the connection currently owned by this session (nil when
	// the client is disconnected).
	conn net.Conn
	// leaseExpiry is when the session's lease runs out; the lease sweeper
	// evicts sessions past it. Zero when leases are disabled or the
	// client is disconnected.
	leaseExpiry time.Time
	// tokens and lastRefill implement the per-client token-bucket rate
	// limit: tokens accrue at ClientRateLimit per second up to the burst
	// capacity, and each admitted update spends one.
	tokens     float64
	lastRefill time.Time
	// consecRejects counts consecutive filter-rejected submissions; at
	// QuarantineAfter the circuit breaker opens.
	consecRejects int
	// quarantinedUntil is when an open circuit breaker allows its
	// half-open probe (zero = closed breaker).
	quarantinedUntil time.Time
	// halfOpen marks the probe state: the next filter verdict decides
	// whether the breaker closes or re-opens.
	halfOpen bool
}

// weight returns the aggregation weight for this client's updates.
// Callers hold Server.mu.
func (c *clientSession) weight() int { return c.numSamples }

// refill accrues rate-limit tokens for the elapsed time since the last
// refill, capped at the burst capacity. Callers hold Server.mu.
func (c *clientSession) refill(now time.Time, rate, burst float64) {
	if c.lastRefill.IsZero() {
		c.tokens = burst
	} else if elapsed := now.Sub(c.lastRefill); elapsed > 0 {
		c.tokens += elapsed.Seconds() * rate
		if c.tokens > burst {
			c.tokens = burst
		}
	}
	c.lastRefill = now
}

// register resolves a Hello to the client's session, creating it on first
// contact. On reconnect the previous connection (if any) is closed so the
// superseded handler exits, and the sample count is refreshed only from a
// non-zero Hello so a hasty reconnect cannot zero the client's weight.
// Registration starts (or renews) the session lease.
func (s *Server) register(h *Hello, conn net.Conn) *clientSession {
	s.mu.Lock()
	sess, ok := s.sessions[h.ClientID]
	if !ok {
		sess = &clientSession{id: h.ClientID, numSamples: h.NumSamples}
		s.sessions[h.ClientID] = sess
		s.stats.ClientsConnected++
	} else {
		s.stats.Reconnects++
		if h.NumSamples > 0 {
			sess.numSamples = h.NumSamples
		}
	}
	old := sess.conn
	sess.conn = conn
	if s.cfg.LeaseDuration > 0 {
		sess.leaseExpiry = time.Now().Add(s.cfg.LeaseDuration)
	}
	s.mu.Unlock()

	if old != nil && old != conn {
		_ = old.Close()
	}
	return sess
}

// release detaches conn from its session when a handler exits. A newer
// connection that already took over the session is left untouched.
func (s *Server) release(sess *clientSession, conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.conn == conn {
		sess.conn = nil
		sess.leaseExpiry = time.Time{}
	}
}

// evictExpiredLeases is one tick of the lease sweeper: a dead client —
// one that stopped sending updates and heartbeats without a TCP reset — is
// evicted within roughly a lease period, freeing its connection and
// in-flight accounting, instead of lingering until a blocking read happens
// to time out. The core ticks it every LeaseDuration/4 while Serve runs
// (see NewServer). The connection close is performed outside s.mu; the
// handler owning the connection observes the close as a read error and
// exits through its usual teardown.
func (s *Server) evictExpiredLeases(now time.Time) {
	s.mu.Lock()
	var victims []net.Conn
	for _, sess := range s.sessions {
		if sess.conn != nil && !sess.leaseExpiry.IsZero() && now.After(sess.leaseExpiry) {
			victims = append(victims, sess.conn)
			sess.conn = nil
			sess.leaseExpiry = time.Time{}
			s.stats.ExpiredLeases++
		}
	}
	s.mu.Unlock()
	for _, conn := range victims {
		_ = conn.Close()
	}
}
