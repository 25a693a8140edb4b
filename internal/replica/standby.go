package replica

import (
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// This file is the standby side: the uplink loop that mirrors the
// primary's commits, the lease watchdog that decides the primary is
// dead, and the promotion sequence.

var errPrimaryGoodbye = errors.New("replica: primary shut down")

// standbyLoop dials the configured upstreams in rotation and runs one
// replication session at a time until the node stops or promotes.
func (n *Node) standbyLoop() {
	defer n.wg.Done()
	n.mu.Lock()
	// The lease clock starts now: a standby that can never reach its
	// primary still promotes one lease after starting, rather than
	// waiting forever for a first heartbeat.
	n.lastHeard = time.Now()
	n.mu.Unlock()

	attempt := 0
	target := 0
	for {
		select {
		case <-n.stop:
			return
		case <-n.promoted:
			return
		default:
		}
		addr := n.uplinks[target%len(n.uplinks)]
		conn, err := n.dial(addr)
		if err != nil {
			n.mu.Lock()
			n.stats.UplinkFailures++
			n.mu.Unlock()
			target++
			attempt++
			if !n.sleepBackoff(attempt) {
				return
			}
			continue
		}
		err = n.standbySession(conn)
		_ = conn.Close()
		if err == nil {
			return
		}
		n.mu.Lock()
		n.stats.UplinkFailures++
		n.mu.Unlock()
		if !errors.Is(err, errPrimaryGoodbye) {
			log.Printf("replica: node %d: session with %s ended: %v", n.cfg.NodeID, addr, err)
		}
		target++
		attempt++
		if !n.sleepBackoff(attempt) {
			return
		}
	}
}

// standbySession runs one attach-and-mirror session: hello, then apply
// every push and ack it. Returns nil only when the node is stopping.
func (n *Node) standbySession(conn net.Conn) error {
	n.mu.Lock()
	// A candidate keeps mirroring: hearing a live primary mid-election
	// refreshes lastHeard, which makes the election stand down instead of
	// fencing a healthy generation.
	if n.closed || (n.role != RoleStandby && n.role != RoleCandidate) {
		n.mu.Unlock()
		return nil
	}
	n.standbyConn = conn
	dirty := n.dirty
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		if n.standbyConn == conn {
			n.standbyConn = nil
		}
		n.mu.Unlock()
	}()

	uc := transport.NewUpstreamConnCodec(conn, n.cfg.Codec, n.cfg.MaxMessageBytes, n.cfg.ReadTimeout, n.cfg.WriteTimeout)
	hello := &transport.ReplicaMsg{Hello: &transport.ReplHello{
		NodeID:   n.cfg.NodeID,
		Epoch:    n.root.Epoch(),
		NextSeq:  uint64(n.root.Version()) + 1,
		FullSync: dirty,
	}}
	if err := uc.WriteReplica(hello); err != nil {
		return fmt.Errorf("hello: %w", err)
	}

	for {
		msg, err := uc.ReadPrimary()
		if err != nil {
			select {
			case <-n.stop:
				return nil
			case <-n.promoted:
				return nil
			default:
			}
			return err
		}
		if msg.Nack == transport.NackFenced {
			// The upstream proved STALER than us (our epoch is above its
			// own): a resurrected old primary. Rotate away; never adopt
			// anything from it.
			n.mu.Lock()
			n.stats.FencedObserved++
			n.mu.Unlock()
			return fmt.Errorf("upstream at epoch %d is stale, rotating", msg.Epoch)
		}
		if msg.Nack != 0 {
			return fmt.Errorf("upstream refused: %s", msg.Nack)
		}
		// Epochs are adopted from every push — heartbeats included — so a
		// standby idling behind a post-failover primary still promotes
		// above it, never into a dead generation's epoch.
		n.root.ObserveEpoch(msg.Epoch)
		n.noteEpoch()
		n.mu.Lock()
		n.lastHeard = time.Now()
		if msg.LatestSeq > n.primarySeq {
			n.primarySeq = msg.LatestSeq
		}
		n.mu.Unlock()

		switch {
		case msg.Goodbye:
			// A clean primary shutdown is not a promotion trigger — the
			// primary may be restarting. The lease watchdog decides.
			return errPrimaryGoodbye
		case len(msg.Snapshot) > 0:
			if _, err := n.root.InstallSnapshot(msg.Snapshot); err != nil {
				return fmt.Errorf("install snapshot: %w", err)
			}
			n.mu.Lock()
			n.dirty = false
			n.stats.SnapshotsInstalled++
			n.mu.Unlock()
		case msg.Record != nil:
			if err := n.root.ApplyRecord(msg.Record); err != nil {
				// The standby's model may now be ahead of its filter:
				// demand a snapshot on the next attach instead of
				// streaming on from a diverged base.
				n.mu.Lock()
				n.dirty = true
				n.mu.Unlock()
				return fmt.Errorf("apply record: %w", err)
			}
			n.mu.Lock()
			n.stats.RecordsApplied++
			n.mu.Unlock()
		}

		applied := uint64(n.root.Version())
		ack := &transport.ReplicaMsg{AckSeq: applied, Epoch: n.root.Epoch()}
		if err := uc.WriteReplica(ack); err != nil {
			return fmt.Errorf("ack: %w", err)
		}
		n.mu.Lock()
		lag := uint64(0)
		if n.primarySeq > applied {
			lag = n.primarySeq - applied
		}
		n.mu.Unlock()
		n.noteLag(lag)
	}
}

// watchdog reacts to an expired primary lease: in a quorum group it runs
// elections (retrying on loss — a minority partition retries forever and
// never serves); without a quorum it promotes outright, PR 7's
// lease-only behavior.
func (n *Node) watchdog() {
	defer n.wg.Done()
	interval := n.cfg.Lease / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.promoted:
			return
		case <-ticker.C:
			n.mu.Lock()
			expired := n.role == RoleStandby && !n.closed &&
				!n.lastHeard.IsZero() && time.Since(n.lastHeard) > n.cfg.Lease &&
				time.Now().After(n.nextElection)
			n.mu.Unlock()
			if !expired {
				continue
			}
			if n.quorum <= 1 {
				if n.promote() {
					return
				}
				continue
			}
			if n.runElection() {
				return
			}
		}
	}
}

// promote runs the lease-only promotion sequence of a non-quorum group:
// cut the upstream session, bump and persist the fencing epoch (which
// releases the held root to serve edges), and flip to primary. Quorum
// groups reach the same tail through runElection. It reports whether the
// node now serves.
func (n *Node) promote() bool {
	lost, ok := n.beginPromoting()
	if !ok {
		return false
	}

	// PromoteEpoch persists the new epoch before returning. When a
	// concurrent adoption raised the epoch first it refuses, and the loop
	// goes above that one. When the persist fails the node stands down
	// and tries again after a lease, like a lost election.
	for {
		next := n.root.Epoch() + 1
		err := n.root.PromoteEpoch(next)
		if err == nil {
			log.Printf("replica: node %d: lease expired, promoting to primary at epoch %d (%d records behind)",
				n.cfg.NodeID, next, lost)
			break
		}
		if !errors.Is(err, topology.ErrEpochNotAbove) {
			n.standDown()
			log.Printf("replica: node %d: promotion at epoch %d failed: %v", n.cfg.NodeID, next, err)
			return false
		}
	}
	n.completePromotion(lost)
	return true
}

// beginPromoting moves a standby (or an election-winning candidate) into
// RolePromoting: it cuts the upstream session and freezes the lag
// accounting. Returns the records lost and false when the node is not in
// a promotable state.
func (n *Node) beginPromoting() (uint64, bool) {
	n.mu.Lock()
	if (n.role != RoleStandby && n.role != RoleCandidate) || n.closed {
		n.mu.Unlock()
		return 0, false
	}
	n.role = RolePromoting
	conn := n.standbyConn
	applied := uint64(n.root.Version())
	lost := uint64(0)
	if n.primarySeq > applied {
		lost = n.primarySeq - applied
	}
	n.mu.Unlock()
	n.noteRole(RolePromoting)
	if conn != nil {
		// Break any in-flight session so no record from the dead
		// generation lands after the epoch bump.
		_ = conn.Close()
	}
	return lost, true
}

// standDown returns a node whose promotion failed to standby and holds
// off its next attempt for a full lease.
func (n *Node) standDown() {
	n.mu.Lock()
	if n.role == RolePromoting && !n.closed {
		n.role = RoleStandby
	}
	n.nextElection = time.Now().Add(n.cfg.Lease)
	n.mu.Unlock()
	n.noteRole(RoleStandby)
}

// completePromotion finishes a promotion whose epoch is already
// persisted: stop the standby loops and flip to primary. PromoteEpoch has
// already released the root, so an edge that dials after observing
// RolePrimary is served, never dropped.
func (n *Node) completePromotion(lost uint64) {
	close(n.promoted)
	n.mu.Lock()
	n.role = RolePrimary
	n.lastSeq = uint64(n.root.Version())
	n.ring = nil
	n.stats.Promotions++
	n.stats.RecordsLostOnPromote += int(lost)
	n.mu.Unlock()
	n.noteRole(RolePrimary)
	n.noteEpoch()
}
