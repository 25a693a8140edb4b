package transport

import (
	"context"
	"time"
)

// Drain gracefully takes the server out of a deployment: it stops
// admitting updates and says Goodbye on every live connection — both in
// reply to in-flight requests and proactively to clients that are busy
// training (their blocked handler reads are nudged awake) — waits for
// the in-flight aggregation round to commit, force-flushes whatever the
// buffer still holds into one final round, writes a final checkpoint
// when checkpointing is configured, lets connections wind down so every
// client actually reads its Goodbye, and tears down the listener and
// remaining connections so Serve returns.
//
// Drain respects ctx: when the deadline expires before the flush
// completes, Drain hard-closes the network and returns ctx.Err() while
// the flush and final checkpoint finish in the background (the
// aggregating round cannot be interrupted mid-filter). Drain is
// idempotent — concurrent or repeated calls wait on the same sequence.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()

	if !alreadyDraining {
		// Wake every handler blocked in a read so it can say Goodbye to
		// its client proactively: a client that is busy training (or
		// sleeping on a NACK pacing hint) would otherwise never hear
		// about the drain until the socket died under it.
		s.nudgeConns()
		s.drainOnce.Do(func() {
			go s.drainSequence()
		})
	}

	var err error
	select {
	case <-s.drained:
		// The flush and final checkpoint are done. Give the farewells a
		// moment to be read — handlers exit once their client takes the
		// Goodbye and closes — before hard-closing the stragglers.
		s.awaitWinddown(ctx)
	case <-ctx.Done():
		err = ctx.Err()
		// The flush is taking too long: mark the deployment finished so
		// handlers and rounds stop, and let the background sequence write
		// its checkpoint whenever the in-flight round lets go.
		s.mu.Lock()
		s.finishLocked()
		s.mu.Unlock()
	}
	if cerr := s.core.Close(); err == nil {
		err = cerr
	}
	return err
}

// nudgeConns expires the read deadline on every live connection, booting
// blocked handler reads into their draining path. The deadlines are set
// outside every lock — SetReadDeadline never blocks, but the lock
// discipline here is the same as for every other conn operation.
func (s *Server) nudgeConns() {
	for _, conn := range s.core.liveConns() {
		_ = conn.SetReadDeadline(time.Now())
	}
}

// awaitWinddown waits for live connections to wind down after the drain
// flush: clients read their Goodbye and close, handlers exit. Bounded by
// ctx and by the farewell linger budget — a comatose client must not pin
// the drain, and whatever remains is hard-closed by the caller.
func (s *Server) awaitWinddown(ctx context.Context) {
	deadline := time.NewTimer(drainLinger)
	defer deadline.Stop()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if len(s.core.liveConns()) == 0 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-deadline.C:
			return
		case <-ticker.C:
		}
	}
}

// drainSequence is the background half of Drain: flush, finish,
// checkpoint, then signal completion by closing s.drained. Runs without
// s.mu held (each step takes the lock itself).
func (s *Server) drainSequence() {
	defer close(s.drained)
	defer s.core.guard("drain")

	// Wait for the in-flight round to commit; the draining flag already
	// stops new updates, and the watchdog stands down for a draining
	// server, so no new round can start behind our back.
	s.mu.Lock()
	for s.aggregating {
		s.aggDone.Wait()
	}
	s.mu.Unlock()

	// Force-flush the remaining buffer into one final round. Deferred
	// updates the filter sends back stay in the buffer and land in the
	// final checkpoint instead of being silently lost.
	s.maybeAggregate(forceDrain)

	s.mu.Lock()
	s.finishLocked()
	var snap *serverSnapshot
	if s.cfg.CheckpointPath != "" {
		snap = s.captureSnapshotLocked()
	}
	s.mu.Unlock()
	if snap != nil {
		s.writeSnapshot(snap)
	}
}
