package transport

import (
	"path/filepath"
	"testing"
	"time"
)

// TestRestoreKeepsQuarantineAndLeases is the kill-and-restore-under-attack
// regression for checkpointed admission control: a server that has
// quarantined a poisoner (and is mid-streak on a second one) is killed and
// rebuilt from its checkpoint. The restored server must refuse the known
// attacker without re-learning anything, keep the second attacker's
// rejection streak, and re-arm session leases from their remaining time.
func TestRestoreKeepsQuarantineAndLeases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.ckpt")
	mk := func(rejectID int) *Server {
		t.Helper()
		server, err := NewServer(ServerConfig{
			InitialParams:      []float64{0, 0},
			AggregationGoal:    1,
			Rounds:             100,
			QuarantineAfter:    2,
			QuarantineCooldown: time.Hour,
			LeaseDuration:      time.Hour,
			CheckpointPath:     path,
		}, &clientRejectFilter{rejectID: rejectID}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return server
	}
	submit := func(s *Server, sess *clientSession) admissionVerdict {
		return s.receiveUpdate(sess, s.Version(), []float64{1, 1}, true)
	}

	server := mk(7)
	bad := server.register(&Hello{ClientID: 7, NumSamples: 5}, nil)
	streak := server.register(&Hello{ClientID: 9, NumSamples: 5}, nil)

	// Two rejections open client 7's breaker (goal 1: each admitted update
	// commits synchronously, feeding the breaker before the next).
	for i := 0; i < 2; i++ {
		if v := submit(server, bad); v.nack != 0 {
			t.Fatalf("rejection %d refused admission: %+v", i, v)
		}
	}
	if v := submit(server, bad); v.nack != NackQuarantined {
		t.Fatalf("pre-kill verdict = %+v, want NackQuarantined", v)
	}
	// Client 9 collects one rejection: mid-streak, breaker still closed.
	server.mu.Lock()
	server.engine.Filter().(*clientRejectFilter).rejectID = 9
	server.mu.Unlock()
	if v := submit(server, streak); v.nack != 0 {
		t.Fatalf("streak rejection refused admission: %+v", v)
	}

	// Kill: a graceful Close writes the final checkpoint.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}

	restored := mk(9)
	if !restored.Restored() {
		t.Fatal("restored server did not load the checkpoint")
	}
	defer restored.Close()

	// The known attacker reconnects into a still-open breaker: refused
	// outright, no fresh rejections needed.
	bad2 := restored.register(&Hello{ClientID: 7, NumSamples: 5}, nil)
	v := submit(restored, bad2)
	if v.nack != NackQuarantined {
		t.Fatalf("post-restore verdict = %+v, want NackQuarantined", v)
	}
	if v.retryAfter <= 0 || v.retryAfter > time.Hour {
		t.Errorf("restored cooldown hint = %v, want in (0, 1h]", v.retryAfter)
	}

	// The mid-streak client needs only one more rejection, not a fresh
	// QuarantineAfter run: its streak survived the restart.
	streak2 := restored.register(&Hello{ClientID: 9, NumSamples: 5}, nil)
	if v := submit(restored, streak2); v.nack != 0 {
		t.Fatalf("post-restore streak rejection refused admission: %+v", v)
	}
	if v := submit(restored, streak2); v.nack != NackQuarantined {
		t.Fatalf("streak did not survive restore: verdict = %+v, want NackQuarantined", v)
	}

	// Lease bookkeeping came back as remaining time, re-armed at restore.
	restored.mu.Lock()
	lease := restored.sessions[7].leaseExpiry
	restored.mu.Unlock()
	if lease.IsZero() || !lease.After(time.Now()) {
		t.Errorf("restored lease expiry = %v, want a live future lease", lease)
	}
}
