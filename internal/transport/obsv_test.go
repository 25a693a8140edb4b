package transport

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/obsv"
)

// ServerStats must be a valid mirror source: every field an int tagged
// with a unique afl_ series name (obsv.Mirror panics otherwise), so the
// /metrics contract "counters match Server.Stats() exactly" cannot miss
// a field.
func TestStatMirrorCoversAllStats(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.Mirror(reg, "", func() ServerStats { return ServerStats{} })
	if got, want := len(reg.Snapshot().Counters), reflect.TypeOf(ServerStats{}).NumField(); got != want {
		t.Fatalf("mirror registers %d series for %d ServerStats fields", got, want)
	}
}

// taggedStats reads st through its metric tags: series name -> value.
func taggedStats(st ServerStats) map[string]int {
	v := reflect.ValueOf(st)
	out := make(map[string]int, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		out[v.Type().Field(i).Tag.Get("metric")] = int(v.Field(i).Int())
	}
	return out
}

// parseMetrics reads Prometheus text into name -> integer value,
// skipping comments and non-integer samples.
func parseMetrics(t *testing.T, body string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		name, val := line[:idx], line[idx+1:]
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[name] = int(n)
	}
	return out
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// The tentpole integration test: a faulty-network attack deployment with
// the introspection handler live. After a graceful drain, /metrics must
// match Server.Stats() exactly, /trace must hold reject records naming
// the attacker client IDs, and /healthz must report the drained state.
// (Observability neutrality — byte-identical aggregation with the hub on
// and off — is asserted on the deterministic simulator in
// internal/experiments, where runs are reproducible; TCP deployments are
// timing-dependent by nature.)
func TestObsvFaultyAttackDeployment(t *testing.T) {
	const (
		numClients = 10
		malicious  = 2 // client IDs 0 and 1 run the GD attack
		flaky      = 3
		goal       = 6  // >= core MinBatch (2*K) so batches are clustered, not wholesale
		rounds     = 40 // high ceiling: the drain ends the run, not Rounds
	)

	filter, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hub := obsv.NewHub(0)
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: goal,
		StalenessLimit:  10,
		Rounds:          rounds,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		MaxMessageBytes: 1 << 20,
		// Generous watchdog: it is here for liveness if the flaky clients
		// all stall at once, not to race the healthy ones. A short timeout
		// makes every round a watchdog-flushed partial batch on a loaded
		// CI machine, and partial batches below the filter's MinBatch are
		// accepted wholesale — the run would never reject anything.
		RoundTimeout: 2 * time.Second,
		Obsv:         hub,
	}, filter, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The same introspection handler serve.go mounts on -obsv-addr.
	introspect := httptest.NewServer(obsv.Handler(hub, func() obsv.Health {
		return obsv.Health{
			Draining: server.Draining(),
			Finished: server.Finished(),
			Restored: server.Restored(),
			Rounds:   server.Version(),
		}
	}))
	defer introspect.Close()

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
		if i < malicious {
			cfg.Attack = attack.Config{Name: attack.GDName, Scale: 2}
		}
		if i >= numClients-flaky {
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

	// Wait for enough rounds AND at least one rejection before draining,
	// so the filter assertions below can never be vacuous. On a loaded
	// machine early rounds may be watchdog-flushed partial batches
	// (accepted wholesale below MinBatch); the attackers submit every
	// round, so a full batch — and with it a rejection — arrives once the
	// scheduler catches up.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := server.Stats(); server.Version() >= 6 && st.Rejected > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rejection within 60s: stats %+v", server.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A mid-run scrape must work while rounds are committing (exercises
	// the collector against a live server under -race).
	if code, _ := httpGet(t, introspect.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("mid-run /metrics status = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	err = server.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// 1. /metrics mirrors Server.Stats() exactly, field for field.
	st := server.Stats()
	_, body := httpGet(t, introspect.URL+"/metrics")
	metrics := parseMetrics(t, body)
	for name, want := range taggedStats(st) {
		got, ok := metrics[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, want %d (Stats mismatch)", name, got, want)
		}
	}

	// Event-driven series exist alongside the mirror: one latency sample
	// per committed round, and buffer counters that tie out with stats.
	if got := metrics["afl_round_latency_seconds_count"]; got != st.Rounds {
		t.Errorf("round latency samples = %d, want %d rounds", got, st.Rounds)
	}
	if metrics["afl_updates_received_total"] == 0 {
		t.Error("no updates recorded")
	}
	if st.Rejected == 0 {
		t.Fatal("attack scenario rejected nothing; filter assertions below are vacuous")
	}
	if got := metrics[`afl_filter_decisions_total{decision="reject"}`]; got != st.Rejected {
		t.Errorf("filter reject events = %d, want %d", got, st.Rejected)
	}

	// 2. /trace holds reject records for the attacker client IDs.
	_, body = httpGet(t, introspect.URL+"/trace")
	var payload struct {
		Records []struct {
			Kind     string `json:"kind"`
			ClientID *int   `json:"client_id"`
			Decision string `json:"decision"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("trace unmarshal: %v", err)
	}
	rejectedAttackers := make(map[int]bool)
	rejects := 0
	for _, r := range payload.Records {
		if r.Kind != "decision" || r.Decision != "reject" {
			continue
		}
		rejects++
		if r.ClientID != nil && *r.ClientID < malicious {
			rejectedAttackers[*r.ClientID] = true
		}
	}
	if rejects == 0 {
		t.Error("/trace holds no reject records")
	}
	if len(rejectedAttackers) == 0 {
		t.Error("/trace holds no reject records for attacker client IDs")
	}

	// 3. /healthz reports the drained lifecycle state with a 503.
	code, body := httpGet(t, introspect.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain /healthz status = %d, want 503", code)
	}
	var health obsv.Health
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining || !health.Finished || health.Rounds != server.Version() {
		t.Errorf("post-drain health = %+v", health)
	}

	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
}

// An undefended (Passthrough) server still mirrors its stats; the filter
// series simply stay absent. Guards the nil-filter wiring path.
func TestObsvPassthroughDeployment(t *testing.T) {
	hub := obsv.NewHub(32)
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: 3,
		StalenessLimit:  10,
		Rounds:          2,
		Obsv:            hub,
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

	parts := testData(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		client, err := NewClient(ClientConfig{
			ID: i, Data: parts[i], Model: testModelConfig(), Trainer: testTrainer(),
			Seed: int64(100 + i),
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
	select {
	case <-server.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("deployment did not finish")
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	wg.Wait()
	<-serveErr

	st := server.Stats()
	snap := hub.Registry.Snapshot()
	if snap.Counters["afl_rounds_total"] != uint64(st.Rounds) {
		t.Errorf("afl_rounds_total = %d, want %d", snap.Counters["afl_rounds_total"], st.Rounds)
	}
	if snap.Counters["afl_accepted_total"] != uint64(st.Accepted) {
		t.Errorf("afl_accepted_total mismatch")
	}
	if _, present := snap.Counters["afl_filter_rounds_total"]; present {
		t.Error("passthrough deployment registered filter series")
	}
	// Buffer churn flowed through the sink.
	if snap.Counters["afl_buffer_drained_total"] == 0 {
		t.Error("buffer sink saw no drains")
	}
}
