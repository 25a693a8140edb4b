package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// gateFilter blocks its first Filter call until released, keeping an
// aggregation round in flight so a test can pile updates up behind it.
// Later calls accept everything immediately.
type gateFilter struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateFilter() *gateFilter {
	return &gateFilter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return fl.AcceptAll(len(updates)), nil
}

func (g *gateFilter) Name() string { return "gate" }

// clientRejectFilter rejects every update from one client ID and accepts
// the rest — a stand-in for a filter that has pinned down a poisoner.
type clientRejectFilter struct {
	mu       sync.Mutex
	rejectID int
}

func (f *clientRejectFilter) setReject(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rejectID = id
}

func (f *clientRejectFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	f.mu.Lock()
	id := f.rejectID
	f.mu.Unlock()
	res := fl.FilterResult{Decisions: make([]fl.Decision, len(updates))}
	for i, u := range updates {
		if u.ClientID == id {
			res.Decisions[i] = fl.Reject
		} else {
			res.Decisions[i] = fl.Accept
		}
	}
	return res, nil
}

func (f *clientRejectFilter) Name() string { return "client-reject" }

// slowCombiner delays each aggregation long enough for eager clients to
// overrun the in-flight budget, forcing the shedding path.
type slowCombiner struct {
	lag   time.Duration
	inner fl.MeanCombiner
}

func (c slowCombiner) Combine(updates []*fl.Update, cfg fl.AggregatorConfig) ([]float64, error) {
	time.Sleep(c.lag)
	return c.inner.Combine(updates, cfg)
}

func (c slowCombiner) Name() string { return "slow-" + c.inner.Name() }

func TestReceiveUpdateRateLimitNack(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 100,
		Rounds:          1,
		// Half a token per second: the second update inside the test
		// window must find an empty bucket.
		ClientRateLimit: 0.5,
		ClientBurst:     1,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := &clientSession{id: 1, numSamples: 5}
	if v := server.receiveUpdate(sess, 0, []float64{1, 1}, true); v.nack != 0 || v.goodbye {
		t.Fatalf("first update refused: %+v", v)
	}
	v := server.receiveUpdate(sess, 0, []float64{1, 1}, true)
	if v.nack != NackRateLimited {
		t.Fatalf("second update verdict = %+v, want NackRateLimited", v)
	}
	if v.retryAfter <= 0 {
		t.Error("rate-limit NACK carried no RetryAfter pacing hint")
	}
	stats := server.Stats()
	if stats.DroppedRateLimited != 1 {
		t.Errorf("DroppedRateLimited = %d, want 1", stats.DroppedRateLimited)
	}
	if stats.NacksSent != 1 {
		t.Errorf("NacksSent = %d, want 1", stats.NacksSent)
	}

	// Back-date the last refill instead of sleeping: four seconds at half
	// a token per second refills well past one token.
	server.mu.Lock()
	sess.lastRefill = sess.lastRefill.Add(-4 * time.Second)
	server.mu.Unlock()
	if v := server.receiveUpdate(sess, 0, []float64{1, 1}, true); v.nack != 0 {
		t.Fatalf("refilled bucket still refused: %+v", v)
	}
}

func TestReceiveUpdateShedsStalestFirst(t *testing.T) {
	gate := newGateFilter()
	server, err := NewServer(ServerConfig{
		InitialParams:     []float64{0, 0},
		AggregationGoal:   1,
		Rounds:            100,
		MaxPendingUpdates: 4,
	}, gate, nil)
	if err != nil {
		t.Fatal(err)
	}
	var obsMu sync.Mutex
	var observed [][]int // BaseVersions of each shed batch, in shed order
	server.shedObserver = func(version int, shed []*fl.Update) {
		obsMu.Lock()
		defer obsMu.Unlock()
		batch := make([]int, len(shed))
		for i, u := range shed {
			batch[i] = u.BaseVersion
		}
		observed = append(observed, batch)
	}
	sess := func(id int) *clientSession { return &clientSession{id: id, numSamples: 1} }
	submit := func(id, base int) admissionVerdict {
		return server.receiveUpdate(sess(id), base, []float64{1, 1}, true)
	}

	// The first update reaches the goal and starts a round; the gate
	// filter holds that round in flight so the next four arrivals pile up
	// in the buffer to exactly MaxPendingUpdates.
	roundDone := make(chan struct{})
	go func() {
		defer close(roundDone)
		submit(0, 0)
	}()
	<-gate.entered
	for i, base := range []int{10, 12, 11, 13} {
		if v := submit(1+i, base); v.nack != 0 {
			t.Fatalf("buffered update %d refused: %+v", i, v)
		}
	}

	// A fresher arrival sheds the stalest buffered update (BaseVersion 10).
	if v := submit(5, 14); v.nack != 0 {
		t.Fatalf("fresh arrival refused: %+v", v)
	}
	// An arrival staler than everything buffered is itself the victim.
	v := submit(6, 5)
	if v.nack != NackOverloaded {
		t.Fatalf("stalest arrival verdict = %+v, want NackOverloaded", v)
	}
	if v.retryAfter <= 0 {
		t.Error("overload NACK carried no RetryAfter pacing hint")
	}

	close(gate.release)
	<-roundDone
	if err := server.Close(); err != nil {
		t.Errorf("close: %v", err)
	}

	obsMu.Lock()
	defer obsMu.Unlock()
	want := [][]int{{10}, {5}}
	if !reflect.DeepEqual(observed, want) {
		t.Errorf("shed batches (BaseVersions) = %v, want %v", observed, want)
	}
	stats := server.Stats()
	if stats.DroppedShed != 2 {
		t.Errorf("DroppedShed = %d, want 2", stats.DroppedShed)
	}
}

func TestQuarantineCircuitBreaker(t *testing.T) {
	filter := &clientRejectFilter{rejectID: 7}
	server, err := NewServer(ServerConfig{
		InitialParams:      []float64{0, 0},
		AggregationGoal:    1,
		Rounds:             100,
		QuarantineAfter:    2,
		QuarantineCooldown: time.Hour,
	}, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := server.register(&Hello{ClientID: 7, NumSamples: 5}, nil)
	good := server.register(&Hello{ClientID: 8, NumSamples: 5}, nil)
	submit := func(sess *clientSession) admissionVerdict {
		return server.receiveUpdate(sess, server.Version(), []float64{1, 1}, true)
	}
	expireQuarantine := func(sess *clientSession) {
		server.mu.Lock()
		sess.quarantinedUntil = time.Now().Add(-time.Millisecond)
		server.mu.Unlock()
	}

	// With goal 1 every admitted update commits a round synchronously, so
	// each submission carries its filter verdict into the breaker before
	// the next one. Two consecutive rejections open it.
	for i := 0; i < 2; i++ {
		if v := submit(bad); v.nack != 0 {
			t.Fatalf("rejection %d refused admission: %+v", i, v)
		}
	}
	v := submit(bad)
	if v.nack != NackQuarantined {
		t.Fatalf("post-quarantine verdict = %+v, want NackQuarantined", v)
	}
	if v.retryAfter <= 0 {
		t.Error("quarantine NACK carried no cooldown hint")
	}
	st := server.Stats()
	if st.QuarantinedClients != 1 {
		t.Errorf("QuarantinedClients = %d, want 1", st.QuarantinedClients)
	}
	if st.DroppedQuarantined != 1 {
		t.Errorf("DroppedQuarantined = %d, want 1", st.DroppedQuarantined)
	}

	// The honest client is untouched by its neighbour's breaker.
	if v := submit(good); v.nack != 0 {
		t.Fatalf("honest client refused: %+v", v)
	}

	// After the cooldown the next update is admitted as the half-open
	// probe; a rejected probe re-opens the breaker immediately, without
	// needing QuarantineAfter fresh rejections.
	expireQuarantine(bad)
	if v := submit(bad); v.nack != 0 {
		t.Fatalf("half-open probe refused admission: %+v", v)
	}
	if st := server.Stats(); st.QuarantinedClients != 2 {
		t.Errorf("failed probe: QuarantinedClients = %d, want 2 (re-opened)", st.QuarantinedClients)
	}
	if v := submit(bad); v.nack != NackQuarantined {
		t.Fatalf("after failed probe: verdict = %+v, want NackQuarantined", v)
	}

	// A probe the filter accepts closes the breaker for good.
	filter.setReject(-1)
	expireQuarantine(bad)
	if v := submit(bad); v.nack != 0 {
		t.Fatalf("accepted probe refused admission: %+v", v)
	}
	if v := submit(bad); v.nack != 0 {
		t.Fatalf("client still penalized after breaker closed: %+v", v)
	}
	if st := server.Stats(); st.QuarantinedClients != 2 {
		t.Errorf("closed breaker re-opened: QuarantinedClients = %d, want 2", st.QuarantinedClients)
	}
	if err := server.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// rawHello dials the server, introduces a client and returns the gob
// codec pair after consuming the initial task.
func rawHello(t *testing.T, addr string, id, numSamples, modelDim int) (net.Conn, *gob.Encoder, *gob.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&ClientMsg{Hello: &Hello{ClientID: id, NumSamples: numSamples, ModelDim: modelDim}}); err != nil {
		t.Fatal(err)
	}
	var msg ServerMsg
	if err := dec.Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Task == nil {
		t.Fatalf("hello answered with %+v, want a task", msg)
	}
	return conn, enc, dec
}

func TestHelloModelDimMismatchNacked(t *testing.T) {
	server, addr, serveErr := startBareServer(t, ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 1,
		Rounds:          1,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&ClientMsg{Hello: &Hello{ClientID: 1, NumSamples: 5, ModelDim: 7}}); err != nil {
		t.Fatal(err)
	}
	var msg ServerMsg
	if err := dec.Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Nack != NackMalformed || msg.Task != nil {
		t.Errorf("mismatched hello answered with %+v, want bare NackMalformed", msg)
	}
	// The refusal is terminal for the connection.
	if err := dec.Decode(&msg); err == nil {
		t.Error("connection stayed open after a refused hello")
	}

	st := server.Stats()
	if st.DroppedMalformed != 1 {
		t.Errorf("DroppedMalformed = %d, want 1", st.DroppedMalformed)
	}
	if st.NacksSent != 1 {
		t.Errorf("NacksSent = %d, want 1", st.NacksSent)
	}
	if st.ClientsConnected != 0 {
		t.Errorf("refused client registered a session (ClientsConnected = %d)", st.ClientsConnected)
	}
	if err := server.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve: %v", err)
	}
}

func TestClientSurfacesRefusedHello(t *testing.T) {
	// A 5-parameter global model cannot match the test model's dimension,
	// so the client's Hello is refused before it trains a single round.
	server, addr, serveErr := startBareServer(t, ServerConfig{
		InitialParams:   make([]float64, 5),
		AggregationGoal: 1,
		Rounds:          1,
	})
	parts := testData(t, 1)
	client, err := NewClient(ClientConfig{
		ID: 1, Data: parts[0], Model: testModelConfig(), Trainer: testTrainer(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := client.Run(addr)
	if runErr == nil || !strings.Contains(runErr.Error(), "refused hello") {
		t.Fatalf("run error = %v, want a refused-hello error", runErr)
	}
	if client.Nacks != 1 {
		t.Errorf("client.Nacks = %d, want 1", client.Nacks)
	}
	if client.TasksRun != 0 {
		t.Errorf("client trained %d tasks against an incompatible server", client.TasksRun)
	}
	if err := server.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve: %v", err)
	}
}

func TestEvictExpiredLeases(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 1,
		Rounds:          1,
		LeaseDuration:   time.Second,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, p1 := net.Pipe()
	s2, p2 := net.Pipe()
	defer p1.Close()
	defer s2.Close()
	defer p2.Close()
	stale := server.register(&Hello{ClientID: 1, NumSamples: 1}, s1)
	fresh := server.register(&Hello{ClientID: 2, NumSamples: 1}, s2)

	server.mu.Lock()
	stale.leaseExpiry = time.Now().Add(-time.Second)
	server.mu.Unlock()
	server.evictExpiredLeases(time.Now())

	server.mu.Lock()
	staleConn, freshConn := stale.conn, fresh.conn
	server.mu.Unlock()
	if staleConn != nil {
		t.Error("expired session kept its connection")
	}
	if freshConn == nil {
		t.Error("live session was evicted")
	}
	if st := server.Stats(); st.ExpiredLeases != 1 {
		t.Errorf("ExpiredLeases = %d, want 1", st.ExpiredLeases)
	}
	// The evicted connection was closed: its peer observes EOF.
	_ = p1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := p1.Read(make([]byte, 1)); err == nil {
		t.Error("evicted connection still open")
	}
}

func TestHeartbeatRenewsLeaseSilentClientEvicted(t *testing.T) {
	server, addr, serveErr := startBareServer(t, ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 10,
		Rounds:          1,
		LeaseDuration:   200 * time.Millisecond,
	})
	connA, encA, decA := rawHello(t, addr, 1, 5, 0)
	defer connA.Close()
	connB, _, decB := rawHello(t, addr, 2, 5, 0)
	defer connB.Close()

	// A heartbeats at a quarter of the lease; B goes silent. Four lease
	// periods later A must still be connected and B must be gone.
	deadline := time.Now().Add(900 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := encA.Encode(&ClientMsg{Heartbeat: true}); err != nil {
			t.Fatalf("heartbeating client lost its connection: %v", err)
		}
		var msg ServerMsg
		if err := decA.Decode(&msg); err != nil {
			t.Fatalf("heartbeating client lost its connection: %v", err)
		}
		if !msg.Pong {
			t.Fatalf("heartbeat answered with %+v, want Pong", msg)
		}
		time.Sleep(50 * time.Millisecond)
	}

	_ = connB.SetReadDeadline(time.Now().Add(2 * time.Second))
	var msg ServerMsg
	if err := decB.Decode(&msg); err == nil {
		t.Errorf("silent client still connected a full lease period later (got %+v)", msg)
	}

	st := server.Stats()
	if st.ExpiredLeases < 1 {
		t.Errorf("ExpiredLeases = %d, want >= 1", st.ExpiredLeases)
	}
	if st.Heartbeats < 3 {
		t.Errorf("Heartbeats = %d, want >= 3", st.Heartbeats)
	}
	if err := server.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve: %v", err)
	}
}

func TestReconnectDuringDrainGetsGoodbye(t *testing.T) {
	gate := newGateFilter()
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: 1,
		Rounds:          100,
	}, gate, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()
	addr := lis.Addr().String()

	// A raw client submits the update that starts the gated round, so the
	// drain sequence has an in-flight round to wait for.
	conn, enc, _ := rawHello(t, addr, 1, 5, 0)
	defer conn.Close()
	if err := enc.Encode(&ClientMsg{Update: &UpdateMsg{BaseVersion: 0, Delta: make([]float64, len(initialParams(t)))}}); err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- server.Drain(ctx)
	}()
	waitFor := time.After(5 * time.Second)
	for !server.isDraining() {
		select {
		case <-waitFor:
			t.Fatal("server never entered draining state")
		case <-time.After(time.Millisecond):
		}
	}

	// A client (re)connecting into the drain gets a polite Goodbye, which
	// Run surfaces as ErrServerGoodbye without burning retries on the
	// same address.
	parts := testData(t, 1)
	client, err := NewClient(ClientConfig{
		ID: 2, Data: parts[0], Model: testModelConfig(), Trainer: testTrainer(),
		Seed: 3, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if runErr := client.Run(addr); !errors.Is(runErr, ErrServerGoodbye) {
		t.Fatalf("run during drain = %v, want ErrServerGoodbye", runErr)
	}

	close(gate.release)
	// Hang up the raw client so the drain can wind down without waiting
	// out its farewell-linger budget on our half-open connection.
	conn.Close()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve after drain: %v", err)
	}
}

// A drain must reach clients that are not talking to the server: a
// client busy training has no request in flight, so its handler sits in
// a blocked read and only the proactive nudge-and-farewell path can
// deliver the Goodbye. Before that path existed, idle clients learned
// about a drain from a connection reset and burned their whole retry
// budget against the closed port.
func TestDrainDeliversGoodbyeToIdleClients(t *testing.T) {
	server, addr, serveErr := startBareServer(t, ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: 1,
		Rounds:          100,
	})

	// Two clients connect, take their initial task, and go quiet — the
	// transport picture of a client that is busy training.
	type idleConn struct {
		conn net.Conn
		dec  *gob.Decoder
	}
	idle := make([]idleConn, 0, 2)
	for id := 1; id <= 2; id++ {
		conn, _, dec := rawHello(t, addr, id, 5, 0)
		defer conn.Close()
		idle = append(idle, idleConn{conn, dec})
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- server.Drain(ctx)
	}()

	// Each idle connection must hear Goodbye without ever asking.
	for i, ic := range idle {
		if err := ic.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		var msg ServerMsg
		if err := ic.dec.Decode(&msg); err != nil {
			t.Fatalf("idle client %d never heard about the drain: %v", i+1, err)
		}
		if !msg.Goodbye {
			t.Fatalf("idle client %d read %+v, want Goodbye", i+1, msg)
		}
		if err := ic.conn.Close(); err != nil {
			t.Errorf("close idle client %d: %v", i+1, err)
		}
	}

	// With every farewell read and every socket closed, the drain winds
	// down promptly instead of waiting out the full linger budget.
	start := time.Now()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("drain took %v after clients left, want a prompt return", waited)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve after drain: %v", err)
	}
}

// waitForVersion polls until the server reaches version v or the deadline
// passes.
func waitForVersion(t *testing.T, server *Server, v int, deadline time.Duration) {
	t.Helper()
	stop := time.After(deadline)
	for server.Version() < v {
		select {
		case <-stop:
			t.Fatalf("server stuck at version %d, want >= %d within %v", server.Version(), v, deadline)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestDrainUnderFaultInjection(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.gob")
	cfg := ServerConfig{
		InitialParams:     initialParams(t),
		AggregationGoal:   3,
		StalenessLimit:    10,
		Rounds:            1000, // far more than the test runs: Drain ends the deployment
		RoundTimeout:      300 * time.Millisecond,
		CheckpointPath:    ckpt,
		CheckpointEvery:   1,
		LeaseDuration:     2 * time.Second,
		MaxPendingUpdates: 6,
	}
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

	// Clients run through a lossy, slow network and keep heartbeating;
	// tight retry pacing keeps the post-drain dial-refused exits quick.
	dial := FaultDialer(FaultConfig{
		Seed: 23, DelayProb: 0.2, Delay: time.Millisecond, PartialWriteProb: 0.02,
	})
	parts := testData(t, 5)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		client, err := NewClient(ClientConfig{
			ID: i, Data: parts[i], Model: testModelConfig(), Trainer: testTrainer(),
			Seed: int64(40 + i), MaxRetries: 10,
			RetryBaseDelay: 20 * time.Millisecond, RetryMaxDelay: 100 * time.Millisecond,
			HeartbeatInterval: 50 * time.Millisecond,
			Dial:              dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Run(lis.Addr().String()) // errors expected at drain
		}()
	}

	// Let a few rounds commit under fire, then drain gracefully.
	waitForVersion(t, server, 2, 15*time.Second)
	before := server.Version()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := server.Drain(ctx); err != nil {
		t.Fatalf("drain: %v (after %v)", err, time.Since(start))
	}
	if err := <-serveErr; err != nil {
		t.Errorf("serve after drain: %v", err)
	}
	wg.Wait()

	// The final checkpoint must be present and restorable, resuming at or
	// past the version the drain flushed.
	restored, err := NewServer(cfg, nil, nil)
	if err != nil {
		t.Fatalf("restore after drain: %v", err)
	}
	if !restored.Restored() {
		t.Fatal("drain left no restorable checkpoint")
	}
	if v := restored.Version(); v < before {
		t.Errorf("restored version %d < drain-time version %d", v, before)
	}
}

// TestOverloadedDeploymentStillConverges is the acceptance test for the
// overload layer: ~3x more clients than each round admits hammer a server
// whose combiner is artificially slow, so the in-flight budget overflows
// and staleness-aware shedding runs continuously. The deployment must
// still finish, answer heartbeats, shed stalest-first, and land within
// tolerance of an unloaded baseline.
func TestOverloadedDeploymentStillConverges(t *testing.T) {
	baseline := runDeployment(t, nil, 6, 0, 3, 6)
	baseAcc := evalAccuracy(t, baseline.FinalParams())

	server, err := NewServer(ServerConfig{
		InitialParams:     initialParams(t),
		AggregationGoal:   3,
		StalenessLimit:    10,
		Rounds:            6,
		MaxPendingUpdates: 4,
		LeaseDuration:     2 * time.Second,
	}, nil, slowCombiner{lag: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var obsMu sync.Mutex
	shedBatches, outOfOrder := 0, 0
	server.shedObserver = func(version int, shed []*fl.Update) {
		obsMu.Lock()
		defer obsMu.Unlock()
		shedBatches++
		for i := 1; i < len(shed); i++ {
			if shed[i].BaseVersion < shed[i-1].BaseVersion {
				outOfOrder++
			}
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	parts := testData(t, 10)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		client, err := NewClient(ClientConfig{
			ID: i, Data: parts[i], Model: testModelConfig(), Trainer: testTrainer(),
			Seed: int64(60 + i), MaxRetries: 5,
			// Think time dwarfs the heartbeat interval, so every client
			// provably heartbeats between tasks.
			ThinkTime:         25 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Run(lis.Addr().String()) // shutdown errors expected
		}()
	}

	select {
	case <-server.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("overloaded deployment did not finish within 30s")
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	st := server.Stats()
	if st.DroppedShed == 0 {
		t.Error("overloaded deployment shed nothing; the budget never bound")
	}
	if st.Heartbeats == 0 {
		t.Error("no heartbeats answered under load")
	}
	obsMu.Lock()
	oo, batches := outOfOrder, shedBatches
	obsMu.Unlock()
	if oo != 0 {
		t.Errorf("%d shed victims out of stalest-first order across %d batches", oo, batches)
	}
	if st.UpdatesReceived < 2*st.Accepted {
		t.Logf("offered/admitted ratio modest: received %d, accepted %d", st.UpdatesReceived, st.Accepted)
	}

	acc := evalAccuracy(t, server.FinalParams())
	t.Logf("baseline accuracy %.3f, overloaded %.3f (shed %d of %d received)",
		baseAcc, acc, st.DroppedShed, st.UpdatesReceived)
	if acc < baseAcc-0.15 {
		t.Errorf("overloaded accuracy %.3f fell more than 0.15 below baseline %.3f", acc, baseAcc)
	}
}

func TestDrainIdempotentAndCloseAfterDrain(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 1,
		Rounds:          1,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = server.Drain(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent drain %d: %v", i, err)
		}
	}
	if err := server.Drain(ctx); err != nil {
		t.Errorf("repeated drain: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Errorf("close after drain: %v", err)
	}
}
