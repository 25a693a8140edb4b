package transport

// WatchdogRound forces one round-progress-watchdog round on whatever the
// buffer holds, exactly as tickWatchdog does once RoundTimeout has passed
// — without the clock. The round characterisation test (package
// transport_test) scripts its partial-buffer round with it.
func (s *Server) WatchdogRound() { s.maybeAggregate(forceWatchdog) }
