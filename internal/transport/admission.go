package transport

import (
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// defaultQuarantineCooldown is used when QuarantineAfter is set but no
// cooldown was configured.
const defaultQuarantineCooldown = 30 * time.Second

// overloadRetryAfter is the pacing hint sent with NackOverloaded: the
// buffer is full of fresher work, so there is no point retrying before
// roughly a round's worth of drain time has passed.
const overloadRetryAfter = 200 * time.Millisecond

// admissionVerdict is the outcome of offering one update to the server.
// The zero value admits the update.
type admissionVerdict struct {
	// nack, when non-zero, is the typed refusal to send back (together
	// with the current task, so the client can back off and resume).
	nack NackCode
	// retryAfter is the pacing hint accompanying nack.
	retryAfter time.Duration
	// goodbye tells the handler to end the conversation with a Goodbye:
	// the server is draining.
	goodbye bool
}

// burst returns the effective token-bucket capacity.
func (s *Server) burst() float64 {
	if s.cfg.ClientBurst > 0 {
		return float64(s.cfg.ClientBurst)
	}
	return 1
}

// quarantineCooldown returns the effective quarantine cooldown.
func (s *Server) quarantineCooldown() time.Duration {
	if s.cfg.QuarantineCooldown > 0 {
		return s.cfg.QuarantineCooldown
	}
	return defaultQuarantineCooldown
}

// receiveUpdate runs admission control on one update and buffers it on
// success, then aggregates (outside the lock) when the goal is hit. The
// admission pipeline, in order: drain gate, dimension and finiteness
// check, quarantine circuit breaker, per-client rate limit, staleness
// limit, and the bounded in-flight budget with staleness-aware shedding.
// All decisions happen under s.mu; replies are the caller's job, outside
// the lock.
//
// Ownership of delta transfers to the server: an admitted update carries
// it into the buffer (and the arena recycles it when the round that
// drains it commits), a refused one is recycled here. Callers must not
// touch delta after this call. finite is the wire's screen of delta (see
// clientFrame): a NaN or Inf is dropped like a dimension mismatch.
//
//afl:owned
func (s *Server) receiveUpdate(sess *clientSession, baseVersion int, delta []float64, finite bool) admissionVerdict {
	now := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.arena.PutVec(delta)
		return admissionVerdict{goodbye: true}
	}
	if s.finished {
		s.mu.Unlock()
		s.arena.PutVec(delta)
		return admissionVerdict{}
	}
	s.stats.UpdatesReceived++
	if len(delta) != len(s.global) || !finite {
		s.stats.DroppedMalformed++
		s.mu.Unlock()
		s.arena.PutVec(delta)
		return admissionVerdict{}
	}
	if s.cfg.LeaseDuration > 0 {
		sess.leaseExpiry = now.Add(s.cfg.LeaseDuration)
	}

	// Quarantine circuit breaker: an open breaker refuses outright; an
	// expired one admits this update as the half-open probe.
	if s.cfg.QuarantineAfter > 0 && !sess.quarantinedUntil.IsZero() {
		if now.Before(sess.quarantinedUntil) {
			s.stats.DroppedQuarantined++
			s.stats.NacksSent++
			retry := sess.quarantinedUntil.Sub(now)
			s.mu.Unlock()
			s.arena.PutVec(delta)
			return admissionVerdict{nack: NackQuarantined, retryAfter: retry}
		}
		sess.quarantinedUntil = time.Time{}
		sess.halfOpen = true
	}

	// Per-client token bucket.
	if s.cfg.ClientRateLimit > 0 {
		sess.refill(now, s.cfg.ClientRateLimit, s.burst())
		if sess.tokens < 1 {
			s.stats.DroppedRateLimited++
			s.stats.NacksSent++
			retry := time.Duration((1 - sess.tokens) / s.cfg.ClientRateLimit * float64(time.Second))
			s.mu.Unlock()
			s.arena.PutVec(delta)
			return admissionVerdict{nack: NackRateLimited, retryAfter: retry}
		}
		sess.tokens--
	}

	update := s.arena.GetUpdate()
	update.ClientID = sess.id
	update.BaseVersion = baseVersion
	update.Staleness = s.version - baseVersion
	update.Delta = delta
	update.NumSamples = sess.weight()

	// Bounded in-flight budget with staleness-aware shedding: the stalest
	// work is the least valuable to the model and the most filter-hostile,
	// so it is the first to go. When the incoming update is itself the
	// stalest candidate (its BaseVersion is at or below everything
	// buffered), shedding stalest-first means dropping it.
	var shed []*fl.Update
	shedVersion := s.version
	if s.cfg.MaxPendingUpdates > 0 && s.buffer.Len() >= s.cfg.MaxPendingUpdates {
		if oldest, ok := s.buffer.OldestBase(); ok && update.BaseVersion <= oldest {
			s.stats.DroppedShed++
			s.stats.NacksSent++
			s.mu.Unlock()
			s.observeShed(shedVersion, []*fl.Update{update})
			s.recycleShed([]*fl.Update{update})
			return admissionVerdict{nack: NackOverloaded, retryAfter: overloadRetryAfter}
		}
		shed = s.buffer.Shed(s.buffer.Len() - s.cfg.MaxPendingUpdates + 1)
		s.stats.DroppedShed += len(shed)
	}

	// Buffer.Add adopts the update on success; a staleness drop leaves
	// ownership here and the memory goes straight back to the arena.
	added := s.buffer.Add(update)
	if !added {
		s.stats.DroppedStale++
	} else {
		s.lastProgress = time.Now()
	}
	s.mu.Unlock()

	if !added {
		s.arena.PutUpdate(update)
	}
	s.observeShed(shedVersion, shed)
	s.recycleShed(shed)
	if added {
		s.maybeAggregate(forceNone)
	}
	return admissionVerdict{}
}

// recycleShed returns shed updates to the arena — unless the shed
// observer test hook is installed, in which case the hook keeps them.
// Runs without s.mu held, after observeShed. Callers transfer ownership
// of the shed updates: they must not touch them after this call.
//
//afl:owned
func (s *Server) recycleShed(shed []*fl.Update) {
	if s.shedObserver != nil {
		return
	}
	for _, u := range shed {
		s.arena.PutUpdate(u)
	}
}

// observeShed recomputes the true staleness of shed updates against the
// version at shed time and delivers them to the test hook. Runs without
// s.mu held.
func (s *Server) observeShed(version int, shed []*fl.Update) {
	if s.shedObserver == nil || len(shed) == 0 {
		return
	}
	for _, u := range shed {
		u.Staleness = version - u.BaseVersion
	}
	s.shedObserver(version, shed)
}

// noteFilterOutcomesLocked feeds a committed round's filter decisions to
// the quarantine circuit breakers: an accepted update closes its client's
// breaker and resets the rejection streak, a rejected one extends the
// streak and — at QuarantineAfter consecutive rejections, or immediately
// for a failed half-open probe — opens the breaker for the cooldown.
// Callers hold s.mu.
func (s *Server) noteFilterOutcomesLocked(accepted, rejected []*fl.Update) {
	if s.cfg.QuarantineAfter <= 0 {
		return
	}
	now := time.Now()
	for _, u := range accepted {
		if sess := s.sessions[u.ClientID]; sess != nil {
			sess.consecRejects = 0
			sess.halfOpen = false
		}
	}
	for _, u := range rejected {
		sess := s.sessions[u.ClientID]
		if sess == nil {
			continue
		}
		sess.consecRejects++
		if sess.halfOpen || sess.consecRejects >= s.cfg.QuarantineAfter {
			sess.quarantinedUntil = now.Add(s.quarantineCooldown())
			sess.halfOpen = false
			sess.consecRejects = 0
			s.stats.QuarantinedClients++
		}
	}
}
