package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// panicConn panics on the first read, standing in for a crafted payload
// that panics the decoder.
type panicConn struct{ nopConn }

func (panicConn) Read(p []byte) (int, error) { panic("crafted payload") }

func TestHandlerPanicIsolated(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams: []float64{1, 2}, AggregationGoal: 1, Rounds: 1,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The core runs every handler behind its recover guard: a panic while
	// decoding one connection must neither escape nor wedge the server.
	server.core.serveConn(panicConn{})
	stats := server.Stats()
	if stats.HandlerPanics != 1 {
		t.Errorf("HandlerPanics = %d, want 1", stats.HandlerPanics)
	}
	if server.Version() != 0 {
		t.Errorf("panicking connection advanced the model to version %d", server.Version())
	}
	// The server still works after the panic.
	sess := &clientSession{id: 1, numSamples: 5}
	server.receiveUpdate(sess, 0, []float64{1, 1}, true)
	if server.Version() != 1 {
		t.Error("server wedged after a recovered handler panic")
	}
}

// panicFilter panics on every batch — the worst-case misbehaving plugin.
type panicFilter struct{}

func (panicFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	panic("filter bug")
}
func (panicFilter) Name() string { return "panic" }

func TestFilterPanicFallsBackToAcceptAll(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams: []float64{0, 0}, AggregationGoal: 1, Rounds: 2,
	}, panicFilter{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := &clientSession{id: 1, numSamples: 5}
	server.receiveUpdate(sess, 0, []float64{1, 1}, true)
	server.receiveUpdate(sess, 1, []float64{1, 1}, true)
	stats := server.Stats()
	if server.Version() != 2 {
		t.Errorf("version = %d, want 2 (panicking filter must not lose rounds)", server.Version())
	}
	if stats.HandlerPanics != 2 {
		t.Errorf("HandlerPanics = %d, want 2", stats.HandlerPanics)
	}
	if stats.Accepted != 2 {
		t.Errorf("Accepted = %d, want 2 (fallback is accept-all)", stats.Accepted)
	}
}

// panicCombiner panics when invoked, to exercise the watchdog's guard.
type panicCombiner struct{}

func (panicCombiner) Combine(accepted []*fl.Update, cfg fl.AggregatorConfig) ([]float64, error) {
	panic("combiner bug")
}
func (panicCombiner) Name() string { return "panic-combiner" }

func TestWatchdogSurvivesAggregationPanic(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams:   []float64{0, 0},
		AggregationGoal: 4, // never reached: the watchdog must fire
		Rounds:          3,
		RoundTimeout:    30 * time.Millisecond,
	}, nil, panicCombiner{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	sess := &clientSession{id: 1, numSamples: 5}
	server.receiveUpdate(sess, 0, []float64{1, 1}, true)

	deadline := time.Now().Add(5 * time.Second)
	for server.Stats().HandlerPanics == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stats := server.Stats()
	if stats.HandlerPanics == 0 {
		t.Fatal("watchdog never recovered the combiner panic")
	}
	if stats.WatchdogRounds == 0 {
		t.Error("watchdog round not counted")
	}
	// The server is still standing: it accepts another update without
	// wedging, even though the panicked round's batch was lost.
	server.receiveUpdate(sess, 0, []float64{1, 1}, true)
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestNewServerRejectsCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.ckpt")
	if err := os.WriteFile(path, []byte("garbage, not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewServer(ServerConfig{
		InitialParams: []float64{1}, AggregationGoal: 1, Rounds: 1,
		CheckpointPath: path,
	}, nil, nil)
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("NewServer on corrupt checkpoint: err = %v, want ErrCorrupt", err)
	}
}

func TestNewServerRejectsForeignFilterCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.ckpt")
	server, err := NewServer(ServerConfig{
		InitialParams: []float64{0, 0}, AggregationGoal: 1, Rounds: 3,
		CheckpointPath: path,
	}, nil, nil) // pass-through filter writes the checkpoint
	if err != nil {
		t.Fatal(err)
	}
	sess := &clientSession{id: 1, numSamples: 5}
	server.receiveUpdate(sess, 0, []float64{1, 1}, true)

	af, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(ServerConfig{
		InitialParams: []float64{0, 0}, AggregationGoal: 1, Rounds: 3,
		CheckpointPath: path,
	}, af, nil); err == nil {
		t.Fatal("NewServer restored a fedbuff checkpoint into asyncfilter")
	}
}

func TestCheckpointRestoreRoundTripWithoutClients(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.ckpt")
	cfg := ServerConfig{
		InitialParams:   []float64{0, 0, 0},
		AggregationGoal: 1,
		Rounds:          5,
		CheckpointPath:  path,
	}
	server, err := NewServer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server.Restored() {
		t.Fatal("fresh server claims to be restored")
	}
	sess := &clientSession{id: 7, numSamples: 11}
	server.sessions[7] = sess
	server.receiveUpdate(sess, 0, []float64{1, 2, 3}, true)
	server.receiveUpdate(sess, 1, []float64{1, 2, 3}, true)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	wantParams := server.FinalParams()
	wantStats := server.Stats()

	restoredServer, err := NewServer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !restoredServer.Restored() {
		t.Fatal("server with existing checkpoint not restored")
	}
	if restoredServer.Version() != 2 {
		t.Errorf("restored version = %d, want 2", restoredServer.Version())
	}
	gotParams := restoredServer.FinalParams()
	for i := range wantParams {
		if gotParams[i] != wantParams[i] {
			t.Fatalf("restored params %v, want %v", gotParams, wantParams)
		}
	}
	// The first task a restored server hands out is the restored model:
	// NewServer publishes after the restore, not before it.
	conn := &captureConn{}
	sentShard := -1
	if !restoredServer.sendTask(conn, replyWire(restoredServer, conn, CodecBinary), &sentShard) {
		t.Fatal("restored server refused to send a task")
	}
	var first ServerMsg
	if _, err := newBinConn(&conn.buf, 0, false).readServerMsg(&first, nil); err != nil {
		t.Fatal(err)
	}
	if first.Task == nil || first.Task.Version != 2 || !sameSlabBits(first.Task.Params, wantParams) {
		t.Fatalf("first task after restore is %+v, want version 2 with params %v", first.Task, wantParams)
	}
	gotStats := restoredServer.Stats()
	if gotStats.UpdatesReceived != wantStats.UpdatesReceived || gotStats.Accepted != wantStats.Accepted {
		t.Errorf("restored stats %+v, want %+v", gotStats, wantStats)
	}
	if restoredServer.sessions[7] == nil || restoredServer.sessions[7].numSamples != 11 {
		t.Error("client session weight did not survive the restore")
	}

	// Finish the deployment and restore once more: a checkpoint of a
	// completed deployment restores as completed.
	for v := restoredServer.Version(); v < cfg.Rounds; v++ {
		restoredServer.receiveUpdate(restoredServer.sessions[7], v, []float64{1, 2, 3}, true)
	}
	select {
	case <-restoredServer.Done():
	default:
		t.Fatal("deployment did not complete")
	}
	if err := restoredServer.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := NewServer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-final.Done():
	default:
		t.Error("restored completed deployment not marked done")
	}
}

// launchClients starts numClients clients against addr: the first
// malicious ones run the GD attack, the next flaky ones dial through the
// fault harness. The returned WaitGroup completes when every client
// exits.
func launchClients(t *testing.T, addr string, numClients, malicious, flaky int) *sync.WaitGroup {
	t.Helper()
	parts := testData(t, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		cfg := ClientConfig{
			ID: i, Data: parts[i], Model: testModelConfig(), Trainer: testTrainer(),
			Seed:      int64(100 + i),
			ThinkTime: 2 * time.Millisecond,
			// Budget sized to ride out injected faults and the restart
			// window (the gap is tens of milliseconds; failed dials burn
			// one retry each at 2-30ms backoff) without dragging out the
			// post-shutdown drain.
			MaxRetries:     60,
			RetryBaseDelay: 2 * time.Millisecond,
			RetryMaxDelay:  30 * time.Millisecond,
		}
		if i < malicious {
			// Scale 8 keeps the reversed gradients visible to the filter
			// even late in the run: at Scale 4 a nearly-converged model
			// shrinks honest deltas until the attack is indistinguishable
			// noise, and a whole post-restart window can pass without a
			// single non-accept verdict for the assertion below to see.
			cfg.Attack = attack.Config{Name: attack.GDName, Scale: 8}
		} else if i < malicious+flaky {
			cfg.Dial = FaultDialer(FaultConfig{
				Seed:          int64(2000 + i),
				ResetAfterOps: 8,
				ResetProb:     0.01,
			})
		}
		client, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Run(addr)
		}()
	}
	return &wg
}

// TestKillAndRestoreMidDeployment is the end-to-end crash-recovery test:
// a checkpointing server is killed mid-deployment while attackers and the
// fault harness are active, restarted from its checkpoint on the same
// address, and must complete all configured rounds with (a) the global
// model parameters restored exactly as killed, (b) the filter's
// per-group moving averages byte-identically restored — demonstrated both
// by snapshot equality and by the restored filter rejecting attackers
// after the restart instead of re-learning from zero.
func TestKillAndRestoreMidDeployment(t *testing.T) {
	const (
		numClients = 9
		// Two attackers, not three: the filter's majority guard accepts a
		// 6-update batch wholesale when the clusters below the suspect one
		// don't hold a strict majority, and with three attackers among
		// nine same-pace clients the rounds can phase-lock into exactly
		// that 3-of-6 composition for the whole run. With two attackers
		// every full batch containing them is eligible for rejection, so
		// the rejected-after-restart assertion measures restored filter
		// state, not batch-composition luck.
		malicious = 2
		flaky     = 2
		goal      = 6 // == DefaultConfig MinBatch, so every full batch is clustered
		// Ten post-restart rounds give the restored filter plenty of full
		// batches to reject attackers in; the rejected-after-restart
		// assertion below must not depend on the luck of a narrow window.
		rounds = 14
		killAt = 4
	)
	ckptPath := filepath.Join(t.TempDir(), "server.ckpt")
	serverCfg := ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: goal,
		StalenessLimit:  10,
		Rounds:          rounds,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		MaxMessageBytes: 1 << 20,
		RoundTimeout:    time.Second,
		CheckpointPath:  ckptPath,
		CheckpointEvery: 1,
	}

	// Uninterrupted baseline with the same defense and client mix.
	baselineFilter, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: goal,
		StalenessLimit:  10,
		Rounds:          rounds,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		MaxMessageBytes: 1 << 20,
		RoundTimeout:    time.Second,
	}, baselineFilter, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseServeErr := make(chan error, 1)
	go func() { baseServeErr <- baseline.Serve(baseLis) }()
	baseWG := launchClients(t, baseLis.Addr().String(), numClients, malicious, flaky)
	select {
	case <-baseline.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("baseline deployment did not finish")
	}
	if err := baseline.Close(); err != nil {
		t.Logf("baseline close: %v", err)
	}
	baseWG.Wait()
	if err := <-baseServeErr; err != nil {
		t.Fatalf("baseline serve: %v", err)
	}

	// Phase 1: checkpointing server, killed once killAt rounds complete.
	filter1, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	server1, err := NewServer(serverCfg, filter1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server1.Restored() {
		t.Fatal("phase-1 server restored from a nonexistent checkpoint")
	}
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis1.Addr().String()
	serve1Err := make(chan error, 1)
	go func() { serve1Err <- server1.Serve(lis1) }()
	clientWG := launchClients(t, addr, numClients, malicious, flaky)

	deadline := time.Now().Add(60 * time.Second)
	for server1.Version() < killAt && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if server1.Version() < killAt {
		t.Fatal("phase-1 server never reached the kill point")
	}
	// Kill: Close writes the final checkpoint and tears down connections.
	// The clients keep retrying against the dead address.
	if err := server1.Close(); err != nil {
		t.Logf("phase-1 close: %v", err)
	}
	if err := <-serve1Err; err != nil {
		t.Fatalf("phase-1 serve: %v", err)
	}
	statsAtKill := server1.Stats()
	versionAtKill := server1.Version()
	if statsAtKill.Checkpoints == 0 {
		t.Fatal("phase-1 server wrote no checkpoints")
	}

	// Phase 2: restart from the checkpoint on the same address.
	var lis2 net.Listener
	for attempt := 0; attempt < 100; attempt++ {
		lis2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	filter2, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	server2, err := NewServer(serverCfg, filter2, nil)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !server2.Restored() {
		t.Fatal("phase-2 server did not restore from the checkpoint")
	}
	if got := server2.Version(); got != versionAtKill {
		t.Fatalf("restored version = %d, killed at %d", got, versionAtKill)
	}
	statsAtRestore := server2.Stats()
	if statsAtRestore.Rounds != versionAtKill {
		t.Errorf("restored stats.Rounds = %d, want %d", statsAtRestore.Rounds, versionAtKill)
	}

	// The filter's Eq. 5 state survived byte-for-byte: filter1 (live at
	// kill time) and filter2 (restored from disk) serialize identically,
	// including the aligned RNG stream.
	blob1, err := filter1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := filter2.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob1, blob2) {
		t.Fatal("restored filter state is not byte-identical to the killed server's")
	}
	if filter2.GroupCount() == 0 {
		t.Fatal("restored filter has no staleness groups: moving averages were lost")
	}
	// So did the global model: the restored parameters are exactly the
	// killed server's, element for element — restore corrupts nothing.
	killedParams := server1.FinalParams()
	restoredParams := server2.FinalParams()
	if len(restoredParams) != len(killedParams) {
		t.Fatalf("restored %d params, killed server had %d", len(restoredParams), len(killedParams))
	}
	for i := range killedParams {
		if !vecmath.ExactEqual(restoredParams[i], killedParams[i]) {
			t.Fatalf("restored param[%d] = %v, killed server had %v", i, restoredParams[i], killedParams[i])
		}
	}

	serve2Err := make(chan error, 1)
	go func() { serve2Err <- server2.Serve(lis2) }()
	select {
	case <-server2.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("restored deployment did not complete its remaining rounds")
	}
	if err := server2.Close(); err != nil {
		t.Logf("phase-2 close: %v", err)
	}
	clientWG.Wait()
	if err := <-serve2Err; err != nil {
		t.Fatalf("phase-2 serve: %v", err)
	}

	finalStats := server2.Stats()
	if got := server2.Version(); got != rounds {
		t.Fatalf("restored deployment completed %d rounds, want %d", got, rounds)
	}
	if finalStats.Rounds != rounds {
		t.Errorf("stats.Rounds = %d, want %d", finalStats.Rounds, rounds)
	}
	// Stats are cumulative across the restart, not reset.
	if finalStats.UpdatesReceived <= statsAtKill.UpdatesReceived {
		t.Errorf("lifetime UpdatesReceived did not carry across the restart: %d -> %d",
			statsAtKill.UpdatesReceived, finalStats.UpdatesReceived)
	}
	if finalStats.ClientsConnected != numClients {
		t.Errorf("ClientsConnected = %d, want %d (restart double-counted sessions)",
			finalStats.ClientsConnected, numClients)
	}
	// The restored moving averages keep catching attackers immediately:
	// non-accept verdicts recorded after the restart, on top of phase 1's.
	// Rejects and defers both count — the default MiddlePolicy sends a
	// middle-cluster attacker to Defer, where the staleness limit ages it
	// out, so a run can neutralize the attack without a single outright
	// Reject.
	flaggedAtRestore := statsAtRestore.Rejected + statsAtRestore.Deferred
	flaggedAfterRestart := finalStats.Rejected + finalStats.Deferred - flaggedAtRestore
	t.Logf("flagged (rejected+deferred): %d before kill, %d after restart; rejected %d -> %d",
		flaggedAtRestore, flaggedAfterRestart, statsAtRestore.Rejected, finalStats.Rejected)
	if flaggedAfterRestart == 0 {
		t.Error("no attacker rejections or deferrals after the restart: filter history did not survive")
	}

	// Final accuracies are logged for the record but deliberately not
	// asserted against each other: with GD attackers in the mix the
	// outcome of any single deployment is bimodal (a late watchdog round
	// that admits an attacker pair wholesale can crater an otherwise
	// clean run), so two independent draws routinely differ by far more
	// than any sane tolerance — the baseline itself ranges from ~0 to
	// ~0.9 across seeds. The model-integrity claim the comparison was
	// standing in for is the deterministic params-equality check at
	// restore time above.
	baseAcc := evalAccuracy(t, baseline.FinalParams())
	restoredAcc := evalAccuracy(t, server2.FinalParams())
	t.Logf("baseline accuracy %.3f, kill-and-restore accuracy %.3f", baseAcc, restoredAcc)
}
