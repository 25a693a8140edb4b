package replica

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/fence"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// This file is the quorum election: the vote ledger (one durable grant
// per epoch, written before the grant leaves the wire), the candidate
// side (fan out VoteRequests, count distinct granting voters, promote
// only behind a majority) and the voter side (answer a peer's
// VoteRequest against the ledger).
//
// Safety rests on quorum intersection: any two majorities of the group
// share at least one voter, a voter grants each epoch to at most one
// candidate, and the grant is persisted BEFORE it is sent — so even
// across voter crashes two candidates can never both assemble a majority
// for the same epoch, and the fencing invariant ("an epoch is bumped
// exactly once per promotion") holds before the winner serves its first
// edge rather than being repaired by NackFenced afterwards.
//
// Liveness is best-effort, as in any quorum system: a minority partition
// (including either half of a symmetric 1-1 split of a two-node group)
// stays in RoleCandidate forever and its held root never serves an edge —
// /healthz shows role "candidate" with a stale epoch, which is the
// operator's cue (see the README split-brain runbook).

// voteLedger is a node's durable election memory: the highest epoch it
// has granted a vote in and who received it. The epoch is a fence.Epoch,
// so it only moves forward.
type voteLedger struct {
	path string // "" keeps the ledger in memory only (tests, ephemeral nodes)

	mu       sync.Mutex
	epoch    fence.Epoch
	votedFor int
}

// newVoteLedger opens (or initializes) the ledger at path. A missing
// file is a fresh ledger; a corrupt one is an error — serving elections
// with amnesia would break the double-grant guarantee.
func newVoteLedger(path string) (*voteLedger, error) {
	l := &voteLedger{path: path, votedFor: -1}
	if path == "" {
		return l, nil
	}
	var rec checkpoint.VoteRecord
	err := checkpoint.Load(path, &rec)
	if errors.Is(err, fs.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("replica: vote ledger: %w", err)
	}
	l.restoreVoteEpoch(rec)
	return l, nil
}

// restoreVoteEpoch adopts a persisted vote record into the fresh ledger
// (raise-only; a fresh ledger is at epoch zero).
func (l *voteLedger) restoreVoteEpoch(rec checkpoint.VoteRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch.Raise(rec.Epoch) {
		l.votedFor = rec.VotedFor
	}
}

// grantEpoch records a vote for candidate at epoch. It returns whether
// the vote was granted and the ledger's epoch after the call. Each epoch
// is granted to exactly one candidate, persistently: a new high epoch is
// written to disk before the grant becomes visible, re-granting the same
// epoch to the same candidate is idempotent, and everything else is
// refused.
func (l *voteLedger) grantEpoch(epoch uint64, candidate int) (bool, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.epoch.Load()
	if l.epoch.Stale(epoch) {
		return false, cur, nil
	}
	if epoch == cur {
		return cur != 0 && l.votedFor == candidate, cur, nil
	}
	if l.path != "" {
		if err := checkpoint.Save(l.path, &checkpoint.VoteRecord{Epoch: epoch, VotedFor: candidate}); err != nil {
			return false, cur, err
		}
	}
	l.epoch.Raise(epoch)
	l.votedFor = candidate
	return true, epoch, nil
}

// last returns the highest granted epoch and its candidate (-1 when the
// ledger has never granted).
func (l *voteLedger) last() (uint64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch.Load(), l.votedFor
}

// nextElectionEpoch picks the epoch a new candidacy targets: strictly
// above every epoch this node has observed serving (root), voted in
// (ledger), or been refused with (a voter's advertised ledger), so a won
// election can never reuse a spent generation and a retry jumps past a
// rival's self-grants instead of chasing them one epoch at a time.
func (n *Node) nextElectionEpoch() uint64 {
	seen := n.root.Epoch()
	voted, _ := n.ledger.last()
	if voted > seen {
		seen = voted
	}
	n.mu.Lock()
	if n.epochHint > seen {
		seen = n.epochHint
	}
	n.mu.Unlock()
	return seen + 1
}

// runElection runs one candidacy end to end: durably self-grant the
// target epoch, fan VoteRequests out to every peer, and promote only
// when a majority of the group (self included) granted the same epoch.
// Returns true when the node promoted to primary. A lost election
// demotes back to standby and pushes the next attempt out by a random
// fraction of the lease so rival candidates interleave instead of
// re-colliding every round.
func (n *Node) runElection() bool {
	n.mu.Lock()
	if n.role != RoleStandby || n.closed {
		n.mu.Unlock()
		return false
	}
	n.role = RoleCandidate
	n.stats.ElectionsStarted++
	n.mu.Unlock()
	n.noteRole(RoleCandidate)
	started := time.Now()
	applied := uint64(n.root.Version())

	epoch := n.nextElectionEpoch()
	granted := false
	for tries := 0; tries < 8; tries++ {
		ok, cur, err := n.ledger.grantEpoch(epoch, n.cfg.NodeID)
		if err != nil {
			return n.loseElection(fmt.Sprintf("vote ledger: %v", err))
		}
		if ok {
			granted = true
			break
		}
		epoch = cur + 1
	}
	if !granted {
		return n.loseElection("could not self-grant a fresh epoch")
	}

	votes, seen, peerSeq := n.collectVotes(epoch, applied)
	if seen > epoch {
		n.mu.Lock()
		if seen > n.epochHint {
			n.epochHint = seen
		}
		n.mu.Unlock()
	}
	if votes < n.quorum {
		why := fmt.Sprintf("%d/%d votes at epoch %d", votes, n.quorum, epoch)
		if peerSeq > applied {
			// A reachable voter's log is ahead of ours: it refuses us
			// every round and the tie-break cannot save us. Stand down
			// for a full lease so the better-qualified peer wins instead
			// of dueling it epoch for epoch.
			return n.loseElectionAfter(n.cfg.Lease, why+fmt.Sprintf(" (a voter is at seq %d, ours %d)", peerSeq, applied))
		}
		return n.loseElection(why)
	}

	// Quorum in hand — but if the primary resurfaced while the votes were
	// in flight, stand down rather than fence a live generation.
	n.mu.Lock()
	heard := !n.lastHeard.IsZero() && time.Since(n.lastHeard) <= n.cfg.Lease
	n.mu.Unlock()
	if heard {
		return n.loseElection(fmt.Sprintf("primary resurfaced during the epoch-%d election", epoch))
	}

	lost, ok := n.beginPromoting()
	if !ok {
		return false
	}
	if n.promotingHook != nil {
		// Test seam: a candidate killed right here has persisted its
		// self-grant but not its fenced epoch (satellite: crash during
		// RolePromoting).
		n.promotingHook()
	}
	if err := n.root.PromoteEpoch(epoch); err != nil {
		// Either a higher epoch landed while the election ran (another
		// candidate won and this node already observed the new
		// generation), or the epoch could not be persisted. Stand down;
		// the ledger keeps the spent epoch. A winner is serving, so give
		// it a full lease to reach us before the next candidacy.
		n.mu.Lock()
		n.stats.ElectionsLost++
		n.mu.Unlock()
		n.standDown()
		log.Printf("replica: node %d: election at epoch %d did not promote: %v", n.cfg.NodeID, epoch, err)
		return false
	}
	n.mu.Lock()
	n.stats.ElectionsWon++
	n.mu.Unlock()
	log.Printf("replica: node %d: won election at epoch %d with %d/%d votes (%d records behind)",
		n.cfg.NodeID, epoch, votes, n.quorum, lost)
	n.completePromotion(lost)
	n.noteElectionLatency(time.Since(started))
	return true
}

// collectVotes asks every vote peer for a grant at epoch and returns the
// number of distinct granting voters (this node included), the highest
// epoch any reply advertised — a refusal carries the voter's ledger,
// which the next candidacy must clear — and the highest applied seq any
// refusing voter reported, which tells an out-of-date candidate to stand
// down. Replies are deduplicated by VoterID, so a misconfigured mesh
// that loops back to the candidate cannot double-count its self-grant.
func (n *Node) collectVotes(epoch, lastSeq uint64) (int, uint64, uint64) {
	replies := make(chan *transport.VoteGrant, len(n.cfg.VotePeers))
	var wg sync.WaitGroup
	for _, addr := range n.cfg.VotePeers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			if g := n.requestVote(addr, epoch, lastSeq); g != nil {
				replies <- g
			}
		}(addr)
	}
	wg.Wait()
	close(replies)
	grantedBy := map[int]struct{}{n.cfg.NodeID: {}}
	seen := epoch
	var peerSeq uint64
	for g := range replies {
		if g.Granted {
			grantedBy[g.VoterID] = struct{}{}
		}
		if g.Epoch > seen {
			seen = g.Epoch
		}
		if !g.Granted && g.LastSeq > peerSeq {
			peerSeq = g.LastSeq
		}
	}
	return len(grantedBy), seen, peerSeq
}

// requestVote runs one strict request-reply vote exchange with a peer.
// Any transport failure is simply a missing vote — elections are retried,
// never blocked on a dead peer.
func (n *Node) requestVote(addr string, epoch, lastSeq uint64) *transport.VoteGrant {
	conn, err := n.dial(addr)
	if err != nil {
		return nil
	}
	defer conn.Close()
	timeout := n.cfg.Lease / 2
	if timeout <= 0 {
		timeout = time.Second
	}
	uc := transport.NewUpstreamConnCodec(conn, n.cfg.Codec, n.cfg.MaxMessageBytes, timeout, timeout)
	req := &transport.ReplicaMsg{
		Vote:  &transport.VoteRequest{CandidateID: n.cfg.NodeID, Epoch: epoch, LastSeq: lastSeq},
		Epoch: n.root.Epoch(),
	}
	if err := uc.WriteReplica(req); err != nil {
		return nil
	}
	msg, err := uc.ReadPrimary()
	if err != nil || msg.Grant == nil {
		return nil
	}
	return msg.Grant
}

// loseElection demotes a failed candidate back to standby and jitters
// the next attempt through nextElection — never through lastHeard, which
// must only ever record genuinely hearing a primary: rival candidates
// that faked their lease clocks here would refuse each other's votes as
// "lease still fresh" and livelock. Always returns false so callers can
// tail-call it.
func (n *Node) loseElection(why string) bool {
	return n.loseElectionAfter(0, why)
}

// loseElectionAfter is loseElection with a floor added to the backoff,
// for losses where retrying soon cannot help (a better-qualified peer
// exists and needs a clear window to win).
func (n *Node) loseElectionAfter(floor time.Duration, why string) bool {
	n.mu.Lock()
	n.stats.ElectionsLost++
	if n.role == RoleCandidate && !n.closed {
		n.role = RoleStandby
	}
	backoff := time.Duration(0)
	if n.cfg.Lease > 0 {
		// Rank-staggered: the tie-break favors low node IDs, so a
		// higher-ID loser waits longer and hands the favorite a clear
		// window instead of re-colliding with it every round.
		rank := time.Duration(n.cfg.NodeID)
		if rank > 4 {
			rank = 4
		}
		backoff = rank*(n.cfg.Lease/8) + time.Duration(n.rng.Int63n(int64(n.cfg.Lease/2)+1))
	}
	n.nextElection = time.Now().Add(floor + backoff)
	n.mu.Unlock()
	n.noteRole(RoleStandby)
	log.Printf("replica: node %d: election lost: %s", n.cfg.NodeID, why)
	return false
}

// answerVote handles one inbound vote exchange on the replication
// listener: decide against the ledger (persisting any grant first) and
// send exactly one reply.
func (n *Node) answerVote(uc *transport.UpstreamConn, req *transport.VoteRequest) {
	grant := n.decideVote(req)
	_ = uc.WritePrimary(&transport.PrimaryMsg{Grant: grant, Epoch: n.root.Epoch(), LatestSeq: n.latestSeq()})
}

// decideVote applies the voter-side election rules in order: a malformed
// or stale-epoch request is refused outright; a node that is serving (or
// can still hear a primary inside its lease) defends the live generation
// by refusing; a candidate running behind this node's applied log is
// refused so the most-caught-up standby wins; equal logs tie-break on
// CandidateID (lowest wins). Only then is the ledger consulted, which
// persists the grant before it becomes visible.
func (n *Node) decideVote(req *transport.VoteRequest) *transport.VoteGrant {
	ours := uint64(n.root.Version())
	grant := &transport.VoteGrant{VoterID: n.cfg.NodeID, LastSeq: ours}
	refuse := func(why string) *transport.VoteGrant {
		n.mu.Lock()
		n.stats.VotesRefused++
		n.mu.Unlock()
		voted, _ := n.ledger.last()
		if seen := n.root.Epoch(); seen > voted {
			voted = seen
		}
		grant.Epoch = voted
		if req != nil {
			log.Printf("replica: node %d: refusing vote for candidate %d at epoch %d: %s",
				n.cfg.NodeID, req.CandidateID, req.Epoch, why)
		}
		return grant
	}

	if err := req.Validate(); err != nil {
		return refuse(err.Error())
	}
	n.mu.Lock()
	role := n.role
	fresh := !n.lastHeard.IsZero() && time.Since(n.lastHeard) <= n.cfg.Lease
	n.mu.Unlock()
	if req.Epoch <= n.root.Epoch() {
		return refuse("epoch already spent")
	}
	switch {
	case role == RolePrimary || role == RolePromoting:
		return refuse("this node is serving")
	case role == RoleStandby && fresh:
		return refuse("primary lease still fresh")
	}
	if req.LastSeq < ours {
		return refuse(fmt.Sprintf("candidate at seq %d is behind our %d", req.LastSeq, ours))
	}
	if req.LastSeq == ours && !fresh && req.CandidateID > n.cfg.NodeID &&
		(role == RoleStandby || role == RoleCandidate) {
		return refuse("tie-break: this node outranks the candidate")
	}
	ok, cur, err := n.ledger.grantEpoch(req.Epoch, req.CandidateID)
	if err != nil {
		return refuse(fmt.Sprintf("vote ledger: %v", err))
	}
	if !ok {
		return refuse(fmt.Sprintf("epoch %d already granted", cur))
	}
	n.mu.Lock()
	n.stats.VotesGranted++
	n.mu.Unlock()
	grant.Granted = true
	grant.Epoch = req.Epoch
	return grant
}

// noteElectionLatency mirrors lease-expiry-to-primary latency of the last
// won election into afl_replica_election_seconds.
func (n *Node) noteElectionLatency(d time.Duration) {
	if n.cfg.Obsv == nil {
		return
	}
	n.cfg.Obsv.Registry.Gauge("afl_replica_election_seconds").Set(d.Seconds())
}
