package transport

import (
	"net"
	"testing"
	"time"
)

func TestClampTick(t *testing.T) {
	cases := []struct{ in, want time.Duration }{
		{0, minTick},
		{time.Microsecond, minTick},
		{minTick - 1, minTick},
		{minTick, minTick},
		{time.Second, time.Second},
	}
	for _, c := range cases {
		if got := clampTick(c.in); got != c.want {
			t.Errorf("clampTick(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// startBareServer spins a server on loopback with no clients, returning
// its dial address (taken from the listener, not Server.Addr, which is
// only set once the Serve goroutine gets going).
func startBareServer(t *testing.T, cfg ServerConfig) (*Server, string, chan error) {
	t.Helper()
	server, err := NewServer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()
	return server, lis.Addr().String(), serveErr
}

// A RoundTimeout far below minTick must still fire the watchdog — the
// ticker is clamped, not dropped. This is the regression test for the
// busy-ticker clamp: before it, a 1ms timeout armed a 250µs ticker.
func TestWatchdogFiresWithTinyRoundTimeout(t *testing.T) {
	server, _, serveErr := startBareServer(t, ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 2,
		Rounds:          1,
		RoundTimeout:    time.Millisecond,
	})
	sess := &clientSession{id: 1, numSamples: 1}
	if v := server.receiveUpdate(sess, 0, []float64{1, 1}, true); v.nack != 0 || v.goodbye {
		t.Fatalf("update refused: %+v", v)
	}
	select {
	case <-server.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not flush the partial buffer within 5s")
	}
	if err := server.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve: %v", err)
	}
	stats := server.Stats()
	if stats.WatchdogRounds != 1 {
		t.Errorf("WatchdogRounds = %d, want 1", stats.WatchdogRounds)
	}
	if got := server.Version(); got != 1 {
		t.Errorf("version = %d, want 1", got)
	}
}

// RoundTimeout == 0 disables the watchdog entirely: a partial buffer sits
// until the goal is reached, and no forced round ever fires.
func TestWatchdogDisabledWithZeroRoundTimeout(t *testing.T) {
	server, _, serveErr := startBareServer(t, ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 2,
		Rounds:          1,
	})
	sess := &clientSession{id: 1, numSamples: 1}
	if v := server.receiveUpdate(sess, 0, []float64{1, 1}, true); v.nack != 0 || v.goodbye {
		t.Fatalf("update refused: %+v", v)
	}
	// Give a hypothetical (buggy) watchdog several minTick periods to
	// fire; nothing may aggregate the one-update buffer.
	time.Sleep(8 * minTick)
	if got := server.Version(); got != 0 {
		t.Errorf("version = %d after sleep, want 0 (no forced round)", got)
	}
	if stats := server.Stats(); stats.WatchdogRounds != 0 {
		t.Errorf("WatchdogRounds = %d, want 0", stats.WatchdogRounds)
	}
	if err := server.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve: %v", err)
	}
}
