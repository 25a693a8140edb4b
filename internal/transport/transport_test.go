package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
	"github.com/asyncfl/asyncfilter/internal/randx"
)

func testModelConfig() model.Config {
	return model.Config{Arch: model.ArchLinear, InputDim: 8, NumClasses: 3, Seed: 1}
}

func testTrainer() fl.TrainerConfig {
	return fl.TrainerConfig{
		Epochs: 1, BatchSize: 16,
		Optim: optim.Config{Name: optim.SGDName, LR: 0.05, Momentum: 0.9},
	}
}

func testData(t *testing.T, n int) []*dataset.Dataset {
	t.Helper()
	train, _, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "t", NumClasses: 3, Dim: 8,
		TrainSize: 1200, TestSize: 60,
		Separation: 4, Noise: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.PartitionIIDFixedSize(train, n, 60, randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func initialParams(t *testing.T) []float64 {
	t.Helper()
	m, err := model.New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.NumParams())
	m.Params(p)
	return p
}

func TestServerConfigValidation(t *testing.T) {
	base := ServerConfig{InitialParams: []float64{1}, AggregationGoal: 1, Rounds: 1}
	cases := []func(*ServerConfig){
		func(c *ServerConfig) { c.InitialParams = nil },
		func(c *ServerConfig) { c.AggregationGoal = 0 },
		func(c *ServerConfig) { c.Rounds = 0 },
		func(c *ServerConfig) { c.StalenessLimit = -1 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := NewServer(cfg, nil, nil); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{Trainer: testTrainer()}); err == nil {
		t.Error("client without data accepted")
	}
	parts := testData(t, 1)
	if _, err := NewClient(ClientConfig{Data: parts[0]}); err == nil {
		t.Error("client without trainer accepted")
	}
	if _, err := NewClient(ClientConfig{Data: parts[0], Trainer: testTrainer(), Attack: attack.Config{Name: "wormhole"}}); err == nil {
		t.Error("client with unknown attack accepted")
	}
}

// runDeployment spins a server plus clients over loopback TCP and waits
// for completion, returning the server.
func runDeployment(t *testing.T, filter fl.Filter, numClients, malicious, goal, rounds int) *Server {
	t.Helper()
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: goal,
		StalenessLimit:  10,
		Rounds:          rounds,
	}, filter, nil)
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
			ID:      i,
			Data:    parts[i],
			Model:   testModelConfig(),
			Trainer: testTrainer(),
			Seed:    int64(100 + i),
		}
		if i < malicious {
			cfg.Attack = attack.Config{Name: attack.GDName, Scale: 2}
		}
		client, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The server closes connections at shutdown; clients may see
			// a receive error then, which is expected.
			_ = client.Run(lis.Addr().String())
		}()
	}

	select {
	case <-server.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("deployment did not finish within 30s")
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

func TestDeploymentCompletesRounds(t *testing.T) {
	server := runDeployment(t, nil, 6, 0, 4, 3)
	if got := server.Version(); got != 3 {
		t.Errorf("version = %d, want 3", got)
	}
	stats := server.Stats()
	if stats.Rounds != 3 {
		t.Errorf("stats rounds = %d", stats.Rounds)
	}
	if stats.Accepted == 0 {
		t.Error("no updates accepted")
	}
	if stats.UpdatesReceived < stats.Accepted {
		t.Error("received < accepted")
	}
}

func TestDeploymentImprovesModel(t *testing.T) {
	server := runDeployment(t, nil, 6, 0, 4, 5)
	final := server.FinalParams()

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
	accBefore, _ := model.Evaluate(m, test)
	m.SetParams(final)
	accAfter, _ := model.Evaluate(m, test)
	if accAfter <= accBefore {
		t.Errorf("deployment did not improve accuracy: %v -> %v", accBefore, accAfter)
	}
}

func TestDeploymentWithAsyncFilterAndAttackers(t *testing.T) {
	af, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	server := runDeployment(t, af, 8, 2, 6, 4)
	if server.Version() != 4 {
		t.Errorf("version = %d, want 4", server.Version())
	}
}

func TestFinalParamsIsCopy(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams: []float64{1, 2}, AggregationGoal: 1, Rounds: 1,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := server.FinalParams()
	p[0] = 99
	if server.FinalParams()[0] == 99 {
		t.Error("FinalParams returned shared storage")
	}
	if server.Addr() != "" {
		t.Error("Addr before Serve should be empty")
	}
}

func TestCloseBeforeServe(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams: []float64{1}, AggregationGoal: 1, Rounds: 1,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("close before serve: %v", err)
	}
	select {
	case <-server.Done():
	default:
		t.Error("Done not closed after Close")
	}
}

func TestServerDropsDimensionMismatch(t *testing.T) {
	server, err := NewServer(ServerConfig{
		InitialParams: []float64{1, 2, 3}, AggregationGoal: 1, Rounds: 1,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := &clientSession{id: 1, numSamples: 10}
	server.receiveUpdate(sess, 0, []float64{1}, true)
	if server.Version() != 0 {
		t.Error("mismatched update triggered aggregation")
	}
	stats := server.Stats()
	if stats.DroppedMalformed != 1 {
		t.Errorf("DroppedMalformed = %d, want 1", stats.DroppedMalformed)
	}
	if stats.UpdatesReceived != 1 {
		t.Errorf("UpdatesReceived = %d, want 1", stats.UpdatesReceived)
	}
	// A well-formed update still aggregates.
	server.receiveUpdate(sess, 0, []float64{1, 1, 1}, true)
	if server.Version() != 1 {
		t.Error("well-formed update did not aggregate")
	}
	if got := server.Stats().DroppedMalformed; got != 1 {
		t.Errorf("DroppedMalformed after valid update = %d, want 1", got)
	}
}
