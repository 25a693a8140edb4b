package replica

import (
	"log"
	"net"
	"time"

	"github.com/asyncfl/asyncfilter/internal/transport"
)

// This file is the primary side of the replication channel: the commit
// tap that fans records out to subscribers and the per-connection handler
// the node's replication Acceptor runs (vote exchanges, and push/ack
// sessions with attached standbys).

// onCommit receives one record per batch the root applies. It is called
// while the root holds the round slot, so records arrive in strict
// version order; it must never block — a subscriber whose buffer is full
// is marked overflowed and will be forced to reconnect and resync.
func (n *Node) onCommit(rec *transport.ReplRecord) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.ring) == 0 {
		n.ringBase = rec.Seq
	}
	n.ring = append(n.ring, rec)
	for len(n.ring) > n.cfg.LogDepth {
		n.ring = n.ring[1:]
		n.ringBase++
	}
	n.lastSeq = rec.Seq
	for sub := range n.subs {
		select {
		case sub.ch <- rec:
		default:
			sub.overflow = true
		}
	}
}

// handleStandby drives one inbound replication connection. A VoteRequest
// makes it a one-shot vote exchange; a Hello attaches a standby:
// validate it, decide between ring catch-up and a full snapshot, then
// push records (and heartbeats while idle) until the connection breaks
// or the node stops, when it writes a Goodbye. The replication core
// closes the connection on return and isolates a panic to it.
func (n *Node) handleStandby(conn net.Conn) {
	// Acceptor side: the attaching standby's (or vote candidate's) first
	// bytes negotiate gob or binary.
	uc := transport.AcceptUpstreamConn(conn, n.cfg.MaxMessageBytes, n.cfg.ReadTimeout, n.cfg.WriteTimeout)
	first, err := uc.ReadReplica()
	if err != nil {
		return
	}
	if first.Vote != nil {
		n.answerVote(uc, first.Vote)
		return
	}
	if first.Hello == nil {
		return
	}
	hello := first.Hello
	if err := hello.Validate(); err != nil {
		_ = uc.WritePrimary(&transport.PrimaryMsg{Nack: transport.NackMalformed, Epoch: n.root.Epoch()})
		return
	}
	if r := n.Role(); r != RolePrimary {
		// Every group member answers on this listener so votes can reach
		// it, but only a primary has an authoritative log to stream.
		// NackNotPrimary sends the dialer rotating WITHOUT refreshing its
		// lease — a mesh of leaderless standbys must still elect.
		_ = uc.WritePrimary(&transport.PrimaryMsg{Nack: transport.NackNotPrimary, Epoch: n.root.Epoch()})
		return
	}
	if hello.Epoch > n.root.Epoch() {
		// The standby has seen a newer primary than us: we are the stale
		// one. Refuse it and demote.
		n.mu.Lock()
		n.stats.FencedNacksSent++
		n.mu.Unlock()
		_ = uc.WritePrimary(&transport.PrimaryMsg{Nack: transport.NackFenced, Epoch: n.root.Epoch()})
		log.Printf("replica: node %d: standby %d carries epoch %d above ours, demoting",
			n.cfg.NodeID, hello.NodeID, hello.Epoch)
		n.noteFenced()
		return
	}

	// Register the subscriber and take the catch-up decision under the
	// same lock, so no committed record can fall between the backlog we
	// copy here and the first record the channel delivers.
	sub := &subscriber{ch: make(chan *transport.ReplRecord, n.cfg.LogDepth)}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	var backlog []*transport.ReplRecord
	needSnapshot := hello.FullSync
	switch {
	case needSnapshot:
	case hello.NextSeq == n.lastSeq+1:
		// Fully caught up: stream from the channel alone.
	case len(n.ring) > 0 && hello.NextSeq >= n.ringBase && hello.NextSeq <= n.lastSeq:
		backlog = append(backlog, n.ring[hello.NextSeq-n.ringBase:]...)
	default:
		// Behind the ring, or claiming a future the primary never
		// committed (a leftover from a dead sibling): re-ground it.
		needSnapshot = true
	}
	n.subs[sub] = struct{}{}
	n.stats.StandbyAttaches++
	n.sessions.Add(1) // under n.mu with closed false, so never after Close's Wait began
	n.mu.Unlock()
	defer n.sessions.Done()
	defer n.dropSub(sub)

	// sent is the highest seq this standby holds; channel records at or
	// below it (queued while the backlog/snapshot was prepared) are
	// skipped, and any gap above it forces a resync via reconnect.
	sent := hello.NextSeq - 1
	if needSnapshot {
		blob, version, err := n.root.SnapshotBlob()
		if err != nil {
			log.Printf("replica: node %d: snapshot for standby %d failed: %v", n.cfg.NodeID, hello.NodeID, err)
			return
		}
		if !n.push(uc, sub, &transport.PrimaryMsg{Snapshot: blob}) {
			return
		}
		sent = version
		n.mu.Lock()
		n.stats.SnapshotsServed++
		n.mu.Unlock()
	}
	for _, rec := range backlog {
		if !n.pushRecord(uc, sub, rec) {
			return
		}
		sent = rec.Seq
	}

	hb := time.NewTicker(n.cfg.Heartbeat)
	defer hb.Stop()
	for {
		if n.subOverflowed(sub) {
			// The standby fell behind the channel buffer; records were
			// dropped. Cut the connection — it reconnects and catches up
			// from the ring or a snapshot.
			return
		}
		select {
		case rec := <-sub.ch:
			if rec.Seq <= sent {
				continue
			}
			if rec.Seq != sent+1 {
				return
			}
			if !n.pushRecord(uc, sub, rec) {
				return
			}
			sent = rec.Seq
		case <-hb.C:
			if !n.push(uc, sub, &transport.PrimaryMsg{Heartbeat: true}) {
				return
			}
		case <-n.stop:
			_ = uc.WritePrimary(&transport.PrimaryMsg{Goodbye: true, Epoch: n.root.Epoch(), LatestSeq: n.latestSeq()})
			return
		}
	}
}

// pushRecord pushes one log record and counts it.
func (n *Node) pushRecord(uc *transport.UpstreamConn, sub *subscriber, rec *transport.ReplRecord) bool {
	if !n.push(uc, sub, &transport.PrimaryMsg{Record: rec}) {
		return false
	}
	n.mu.Lock()
	n.stats.RecordsStreamed++
	n.mu.Unlock()
	return true
}

// push sends one primary message stamped with the current epoch and
// latest seq, then reads the standby's ack. A standby acking with a
// newer epoch proves this primary was superseded: it demotes.
func (n *Node) push(uc *transport.UpstreamConn, sub *subscriber, msg *transport.PrimaryMsg) bool {
	msg.Epoch = n.root.Epoch()
	msg.LatestSeq = n.latestSeq()
	if err := uc.WritePrimary(msg); err != nil {
		return false
	}
	ack, err := uc.ReadReplica()
	if err != nil {
		return false
	}
	if ack.Epoch > n.root.Epoch() {
		n.mu.Lock()
		n.stats.FencedObserved++
		n.mu.Unlock()
		log.Printf("replica: node %d: standby ack carries epoch %d above ours, demoting", n.cfg.NodeID, ack.Epoch)
		n.noteFenced()
		return false
	}
	n.mu.Lock()
	sub.acked = ack.AckSeq
	lag := uint64(0)
	for s := range n.subs {
		if d := n.lastSeq - s.acked; n.lastSeq > s.acked && d > lag {
			lag = d
		}
	}
	n.mu.Unlock()
	n.noteLag(lag)
	return true
}

// latestSeq returns the newest committed record seq.
func (n *Node) latestSeq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastSeq
}

// subOverflowed reports whether a subscriber lost records to a full
// buffer.
func (n *Node) subOverflowed(sub *subscriber) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return sub.overflow
}

// dropSub unregisters a subscriber.
func (n *Node) dropSub(sub *subscriber) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.subs, sub)
}
