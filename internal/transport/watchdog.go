package transport

import "time"

// tickWatchdog is one tick of the round-progress watchdog: when the
// buffer has held at least one update but stayed below the aggregation
// goal for RoundTimeout, it aggregates the partial buffer
// (FedBuff-with-timeout). Crashed or wedged clients therefore delay a
// round by at most RoundTimeout instead of stalling the deployment
// forever.
//
// Contract: RoundTimeout == 0 disables the watchdog entirely (NewServer
// registers no ticker). A positive RoundTimeout ticks at a quarter of the
// timeout, floored at minTick, so a tiny timeout cannot degenerate into a
// busy loop. The core's per-tick panic guard keeps a panic out of a forced
// partial aggregation (e.g. from a misbehaving combiner) from killing the
// watchdog — and with it the deployment's only defense against stalled
// rounds. A draining server is left alone: the drain sequence owns the
// final flush.
func (s *Server) tickWatchdog() {
	s.mu.Lock()
	stalled := !s.finished && !s.draining && !s.aggregating &&
		s.buffer.Len() > 0 && !s.buffer.Ready() &&
		time.Since(s.lastProgress) >= s.cfg.RoundTimeout
	s.mu.Unlock()
	if stalled {
		// The forced round (and its WatchdogRounds accounting) re-checks
		// state under the lock; a racing regular round simply wins.
		s.maybeAggregate(forceWatchdog)
	}
}
