package transport

import (
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
)

// nopConn is a net.Conn stub whose reads and writes always succeed,
// isolating FaultConn schedule tests from real sockets.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return len(p), nil }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// firstFailure returns the 1-based op index at which the fault schedule
// resets the connection (0 = never within n ops).
func firstFailure(cfg FaultConfig, n int) int {
	fc := NewFaultConn(nopConn{}, cfg)
	buf := make([]byte, 64)
	for i := 1; i <= n; i++ {
		var err error
		if i%2 == 0 {
			_, err = fc.Write(buf)
		} else {
			_, err = fc.Read(buf)
		}
		if err != nil {
			return i
		}
	}
	return 0
}

func TestFaultConnDeterministicSchedule(t *testing.T) {
	cfg := FaultConfig{Seed: 42, ResetProb: 0.05}
	first := firstFailure(cfg, 1000)
	if first == 0 {
		t.Fatal("fault schedule with ResetProb 0.05 never fired in 1000 ops")
	}
	for i := 0; i < 3; i++ {
		if got := firstFailure(cfg, 1000); got != first {
			t.Fatalf("schedule not deterministic: first failure at op %d, then %d", first, got)
		}
	}
	if got := firstFailure(FaultConfig{Seed: 43, ResetProb: 0.05}, 1000); got == first {
		t.Log("different seed produced the same first failure (possible but unlikely); not fatal")
	}
}

func TestFaultConnResetAfterOps(t *testing.T) {
	if got := firstFailure(FaultConfig{Seed: 1, ResetAfterOps: 7}, 100); got != 7 {
		t.Fatalf("ResetAfterOps 7: first failure at op %d, want 7", got)
	}
	fc := NewFaultConn(nopConn{}, FaultConfig{Seed: 1, ResetAfterOps: 1})
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("read after reset: %v, want ErrInjectedFault", err)
	}
	if _, err := fc.Write(make([]byte, 1)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("conn did not stay broken: %v", err)
	}
}

func TestFaultConnPartialWrite(t *testing.T) {
	fc := NewFaultConn(nopConn{}, FaultConfig{Seed: 5, PartialWriteProb: 1})
	n, err := fc.Write(make([]byte, 10))
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("partial write err = %v, want ErrInjectedFault", err)
	}
	if n != 5 {
		t.Fatalf("partial write transmitted %d bytes, want 5", n)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedFault) {
		t.Fatal("conn usable after partial-write reset")
	}
}

func TestClientBackoffBounds(t *testing.T) {
	parts := testData(t, 1)
	c, err := NewClient(ClientConfig{
		Data: parts[0], Model: testModelConfig(), Trainer: testTrainer(),
		MaxRetries: 5, RetryBaseDelay: 10 * time.Millisecond, RetryMaxDelay: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 10; n++ {
		d := c.backoff(n)
		if d < 5*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("backoff(%d) = %v outside jittered [5ms, 120ms]", n, d)
		}
	}
	// Attempt 1 must stay near the base delay even with maximal jitter.
	if d := c.backoff(1); d > 15*time.Millisecond {
		t.Fatalf("backoff(1) = %v, want <= 15ms", d)
	}
}

// craftZero is a broken attack returning no deltas, to exercise the
// crafted-cardinality guard.
type craftZero struct{}

func (craftZero) Craft(honest [][]float64, r *rand.Rand) ([][]float64, error) {
	return nil, nil
}
func (craftZero) Name() string { return "craft-zero" }

func TestClientRejectsWrongCraftCardinality(t *testing.T) {
	parts := testData(t, 1)
	client, err := NewClient(ClientConfig{
		ID: 1, Data: parts[0], Model: testModelConfig(), Trainer: testTrainer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	client.atk = craftZero{}

	clientConn, serverConn := net.Pipe()
	defer serverConn.Close()
	go func() {
		dec := gob.NewDecoder(serverConn)
		enc := gob.NewEncoder(serverConn)
		var hello ClientMsg
		if err := dec.Decode(&hello); err != nil {
			return
		}
		m, err := model.New(testModelConfig())
		if err != nil {
			return
		}
		params := make([]float64, m.NumParams())
		m.Params(params)
		_ = enc.Encode(&ServerMsg{Task: &Task{Version: 0, Params: params}})
	}()

	err = client.RunConn(clientConn)
	clientConn.Close()
	if err == nil || !strings.Contains(err.Error(), "crafted") {
		t.Fatalf("RunConn with broken attack: err = %v, want crafted-cardinality error", err)
	}
}

func TestWatchdogAggregatesPartialBuffer(t *testing.T) {
	// One client can never fill an aggregation goal of 4; only the
	// watchdog lets the deployment finish.
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: 4,
		Rounds:          2,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		RoundTimeout:    50 * time.Millisecond,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	// The protocol answers every update with a fresh task, so a fast
	// client would fill even a goal-4 buffer alone; the think time keeps
	// at most one update per watchdog window in flight.
	parts := testData(t, 1)
	client, err := NewClient(ClientConfig{
		ID: 0, Data: parts[0], Model: testModelConfig(), Trainer: testTrainer(), Seed: 9,
		ThinkTime: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = client.Run(lis.Addr().String()) }()

	select {
	case <-server.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("watchdog did not complete the deployment")
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	stats := server.Stats()
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", stats.Rounds)
	}
	if stats.WatchdogRounds == 0 {
		t.Error("WatchdogRounds = 0, want > 0")
	}
}

func TestClientReconnectsWithConsistentAccounting(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: 1,
		Rounds:          3,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	parts := testData(t, 1)
	client, err := NewClient(ClientConfig{
		ID: 7, Data: parts[0], Model: testModelConfig(), Trainer: testTrainer(), Seed: 3,
		MaxRetries:     50,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  10 * time.Millisecond,
		// Every connection dies after 9 I/O ops — mid-deployment, so the
		// client must reconnect repeatedly to finish three rounds.
		Dial: FaultDialer(FaultConfig{Seed: 11, ResetAfterOps: 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() { clientErr <- client.Run(lis.Addr().String()) }()

	select {
	case <-server.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("deployment with reconnecting client did not finish")
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	<-clientErr // completion or a final-connection error; both acceptable
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	stats := server.Stats()
	if stats.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", stats.Rounds)
	}
	if stats.ClientsConnected != 1 {
		t.Errorf("ClientsConnected = %d, want 1 (Hello double-counted)", stats.ClientsConnected)
	}
	if stats.Reconnects == 0 {
		t.Error("server saw no reconnects despite injected resets")
	}
	if client.Reconnects == 0 {
		t.Error("client recorded no reconnects despite injected resets")
	}
	if stats.UpdatesReceived < stats.Rounds {
		t.Errorf("UpdatesReceived = %d < rounds %d", stats.UpdatesReceived, stats.Rounds)
	}
}

func TestServerRejectsOversizeMessage(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams:   make([]float64, 8),
		AggregationGoal: 1,
		Rounds:          1,
		ReadTimeout:     5 * time.Second,
		MaxMessageBytes: 2048,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()
	defer func() {
		_ = server.Close()
		<-serveErr
	}()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&ClientMsg{Hello: &Hello{ClientID: 1, NumSamples: 10}}); err != nil {
		t.Fatal(err)
	}
	var task ServerMsg
	if err := dec.Decode(&task); err != nil {
		t.Fatal(err)
	}
	// 16k floats ≈ 128KB on the wire: far past the 2KB budget.
	huge := ClientMsg{Update: &UpdateMsg{BaseVersion: 0, Delta: make([]float64, 16384)}}
	_ = enc.Encode(&huge) // the server closes the conn partway through

	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := server.Stats()
		if stats.DroppedOversize >= 1 {
			if stats.UpdatesReceived != 0 {
				t.Errorf("oversize message still counted: UpdatesReceived = %d", stats.UpdatesReceived)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never rejected the oversize message: stats = %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recordingFilter defers a chosen client's updates for deferRounds rounds
// and records the staleness each update carries into every filter call.
type recordingFilter struct {
	deferClient int
	deferRounds int
	seen        map[int][]int // clientID -> staleness per observed round
}

func (f *recordingFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	decisions := make([]fl.Decision, len(updates))
	for i, u := range updates {
		f.seen[u.ClientID] = append(f.seen[u.ClientID], u.Staleness)
		if u.ClientID == f.deferClient && round <= f.deferRounds {
			decisions[i] = fl.Defer
		} else {
			decisions[i] = fl.Accept
		}
	}
	return fl.FilterResult{Decisions: decisions}, nil
}

func (f *recordingFilter) Name() string { return "recording" }

func TestDeferredStalenessRecomputedAtDrain(t *testing.T) {
	filter := &recordingFilter{deferClient: 99, deferRounds: 2, seen: map[int][]int{}}
	server, err := NewServer(ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 2,
		StalenessLimit:  10,
		Rounds:          3,
	}, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := &clientSession{id: 99, numSamples: 5}
	other := &clientSession{id: 1, numSamples: 5}

	// Round 1: the victim's update (base 0) arrives alongside a fresh one.
	server.receiveUpdate(victim, 0, []float64{1, 1}, true)
	server.receiveUpdate(other, 0, []float64{1, 1}, true)
	// Rounds 2 and 3: only fresh updates from the other client; the
	// victim's deferred update rides along in the buffer.
	server.receiveUpdate(other, 1, []float64{1, 1}, true)
	server.receiveUpdate(other, 2, []float64{1, 1}, true)

	if server.Version() != 3 {
		t.Fatalf("version = %d, want 3", server.Version())
	}
	// The deferred update trained from version 0, so by rounds 1, 2, 3
	// (versions 0, 1, 2 at drain) its staleness must read 0, 1, 2.
	want := []int{0, 1, 2}
	got := filter.seen[99]
	if len(got) != len(want) {
		t.Fatalf("victim observed %d times (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("victim staleness per round = %v, want %v", got, want)
		}
	}
}

func TestCloseRacesActiveHandlers(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: 3,
		Rounds:          1000, // never finishes naturally
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	const numClients = 8
	parts := testData(t, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		client, err := NewClient(ClientConfig{
			ID: i, Data: parts[i], Model: testModelConfig(), Trainer: testTrainer(), Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Run(lis.Addr().String())
		}()
	}

	// Let a few aggregations happen mid-flight, then yank the server.
	deadline := time.Now().Add(5 * time.Second)
	for server.Version() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("clients did not unblock after Close")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after Close: %v", err)
	}
	stats := server.Stats()
	if terminal := stats.Accepted + stats.Rejected + stats.DroppedStale + stats.DroppedMalformed; terminal > stats.UpdatesReceived {
		t.Errorf("accounting: terminal outcomes %d > received %d", terminal, stats.UpdatesReceived)
	}
}

// evalAccuracy measures params on the shared synthetic test split.
func evalAccuracy(t *testing.T, params []float64) float64 {
	t.Helper()
	m, err := model.New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, test, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "t", NumClasses: 3, Dim: 8,
		TrainSize: 300, TestSize: 300,
		Separation: 4, Noise: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetParams(params)
	acc, _ := model.Evaluate(m, test)
	return acc
}

// runFlakyDeployment drives a full deployment where flaky of numClients
// clients dial through the fault harness, and returns the server.
func runFlakyDeployment(t *testing.T, numClients, flaky, goal, rounds int) *Server {
	t.Helper()
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: goal,
		StalenessLimit:  10,
		Rounds:          rounds,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		MaxMessageBytes: 1 << 20,
		RoundTimeout:    300 * time.Millisecond,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	parts := testData(t, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		cfg := ClientConfig{
			ID: i, Data: parts[i], Model: testModelConfig(), Trainer: testTrainer(),
			Seed:           int64(100 + i),
			ThinkTime:      2 * time.Millisecond,
			MaxRetries:     40,
			RetryBaseDelay: time.Millisecond,
			RetryMaxDelay:  20 * time.Millisecond,
		}
		if i < flaky {
			// Every flaky connection dies mid-stream after six I/O ops
			// (roughly one task round-trip past the Hello), with
			// occasional random resets, slow reads and truncated writes
			// on top.
			cfg.Dial = FaultDialer(FaultConfig{
				Seed:             int64(1000 + i),
				ResetProb:        0.01,
				ResetAfterOps:    6,
				DelayProb:        0.2,
				Delay:            time.Millisecond,
				PartialWriteProb: 0.05,
			})
		}
		client, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Run(lis.Addr().String())
		}()
	}

	select {
	case <-server.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("flaky deployment did not finish within 60s")
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	return server
}

func TestFlakyDeploymentStillConverges(t *testing.T) {
	const (
		numClients = 9
		flaky      = 3 // 33% of connections killed mid-round
		goal       = 4
		rounds     = 8
	)
	clean := runDeployment(t, nil, numClients, 0, goal, rounds)
	faulty := runFlakyDeployment(t, numClients, flaky, goal, rounds)

	if got := faulty.Version(); got != rounds {
		t.Fatalf("flaky deployment completed %d rounds, want %d", got, rounds)
	}
	stats := faulty.Stats()
	if stats.ClientsConnected != numClients {
		t.Errorf("ClientsConnected = %d, want %d", stats.ClientsConnected, numClients)
	}
	if stats.Reconnects == 0 {
		t.Error("no reconnects recorded despite fault injection")
	}
	if stats.Accepted == 0 {
		t.Error("no updates accepted")
	}
	if terminal := stats.Accepted + stats.Rejected + stats.DroppedStale + stats.DroppedMalformed; terminal > stats.UpdatesReceived {
		t.Errorf("accounting: terminal outcomes %d > received %d", terminal, stats.UpdatesReceived)
	}

	cleanAcc := evalAccuracy(t, clean.FinalParams())
	faultyAcc := evalAccuracy(t, faulty.FinalParams())
	t.Logf("clean accuracy %.3f, flaky accuracy %.3f", cleanAcc, faultyAcc)
	if faultyAcc < cleanAcc-0.15 {
		t.Errorf("flaky accuracy %.3f fell more than 0.15 below clean %.3f", faultyAcc, cleanAcc)
	}
}
