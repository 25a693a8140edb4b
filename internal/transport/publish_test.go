package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
)

// The server publishes the model once per model state (publishLocked) and
// every reply is served from that value without the server lock. These
// tests hold the published value to the model under concurrency: whatever
// a client receives is a pair the server published, whole.

// modelHash identifies a parameter vector by its bits.
func modelHash(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// publishedPair is one (version, params) state a server made visible.
type publishedPair struct {
	version int
	hash    uint64
}

// TestRepliesCarryOnlyPublishedModels runs binary and gob clients flat out
// against a server whose rounds commit and whose model is adopted from
// upstream while they are being answered, and checks every task any of
// them received against the log of what the server published. A reply
// encoded from the live model while a commit rewrites it, or a new version
// paired with the previous params, is in nobody's log — and is a data
// race the detector reports. Nothing sleeps: the clients' own request →
// reply loops are the schedule, and the assertions hold for every
// interleaving of them.
func TestRepliesCarryOnlyPublishedModels(t *testing.T) {
	const (
		dim       = 512
		rounds    = 40
		goal      = 3
		adoptEach = 4 // every adoptEach-th round the committed model is replaced
	)
	codecs := []Codec{CodecBinary, CodecGob, CodecBinary, CodecGob, CodecBinary}

	var (
		logMu     sync.Mutex
		published = map[publishedPair]bool{}
		adopted   = map[publishedPair]bool{}
	)
	var server *Server
	// record logs the published value as it stands. It is called where no
	// other publish can interleave: before Serve, and from the round-commit
	// callback, which runs with the round slot held (no commit) and is the
	// only caller of AdoptGlobal.
	record := func(into map[publishedPair]bool) {
		pub := server.task.Load()
		var decoded ServerMsg
		frame := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(pub.frame), io.Discard}
		if _, err := newBinConn(frame, 0, false).readServerMsg(&decoded, nil); err != nil {
			t.Errorf("published frame of version %d does not decode: %v", pub.task.Version, err)
			return
		}
		if decoded.Task.Version != pub.task.Version || !sameSlabBits(decoded.Task.Params, pub.task.Params) {
			t.Errorf("published frame and published task disagree at version %d", pub.task.Version)
		}
		logMu.Lock()
		into[publishedPair{pub.task.Version, modelHash(pub.task.Params)}] = true
		logMu.Unlock()
	}
	adoptRand := randx.New(99)
	cfg := ServerConfig{
		InitialParams:   randx.NormalVector(randx.New(1), dim, 0, 1),
		AggregationGoal: goal,
		Rounds:          rounds,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		OnRoundCommitted: func(version int, _ []*fl.Update) {
			if got := server.Version(); got != version {
				t.Errorf("round %d committed but Version() = %d", version, got)
			}
			record(published)
			if version%adoptEach != 0 {
				return
			}
			if err := server.AdoptGlobal(randx.NormalVector(adoptRand, dim, 0, 1)); err != nil {
				t.Errorf("AdoptGlobal: %v", err)
			}
			if got := server.Version(); got != version {
				t.Errorf("AdoptGlobal moved the version from %d to %d", version, got)
			}
			record(adopted)
		},
	}
	var err error
	server, err = NewServer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	record(published)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	received := make([][]publishedPair, len(codecs))
	var wg sync.WaitGroup
	for i, codec := range codecs {
		w := dialScripted(t, lis.Addr().String(), codec)
		defer w.conn.Close()
		wg.Add(1)
		go func(i int, codec Codec) {
			defer wg.Done()
			err := w.trySend(&ClientMsg{Hello: &Hello{ClientID: i, NumSamples: 10, ModelDim: dim, Codec: codec}})
			for step := 0; err == nil; step++ {
				var reply *ServerMsg
				if reply, err = w.tryRecv(); err != nil || reply.Done {
					break
				}
				if reply.Task == nil {
					err = fmt.Errorf("reply without a task: %+v", reply)
					break
				}
				if len(reply.Task.Params) != dim {
					err = fmt.Errorf("task of %d params, want %d", len(reply.Task.Params), dim)
					break
				}
				received[i] = append(received[i], publishedPair{reply.Task.Version, modelHash(reply.Task.Params)})
				err = w.trySend(&ClientMsg{Update: &UpdateMsg{
					BaseVersion: reply.Task.Version,
					Delta:       scriptDelta(i+1, step, dim),
				}})
			}
			if err != nil {
				t.Errorf("client %d (%v): %v", i, codec, err)
			}
		}(i, codec)
	}
	wg.Wait()
	<-server.Done()
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	if len(published) != rounds+1 || len(adopted) != rounds/adoptEach {
		t.Fatalf("logged %d committed and %d adopted models, want %d and %d", len(published), len(adopted), rounds+1, rounds/adoptEach)
	}
	sawAdopted := 0
	for i, pairs := range received {
		last := -1
		for _, p := range pairs {
			switch {
			case adopted[p]:
				sawAdopted++
			case !published[p]:
				t.Errorf("client %d (%v) received version %d with params %016x, which the server never published", i, codecs[i], p.version, p.hash)
			}
			if p.version < last {
				t.Errorf("client %d (%v) went back from version %d to %d", i, codecs[i], last, p.version)
			}
			last = p.version
		}
	}
	if sawAdopted == 0 {
		t.Error("no client was ever handed an adopted model")
	}
	final := server.task.Load()
	if want := (publishedPair{rounds, modelHash(server.FinalParams())}); final.task.Version != rounds || !(published[want] || adopted[want]) {
		t.Errorf("final published model is version %d / %016x, not one the log holds", final.task.Version, want.hash)
	}
}

// TestAdoptGlobalRepublishesAtTheSameVersion is the lockstep half: after
// AdoptGlobal returns, the very next reply in either codec is the adopted
// model at the version the server already had, Version and FinalParams
// agree with it, and the caller's slice stays the caller's.
func TestAdoptGlobalRepublishesAtTheSameVersion(t *testing.T) {
	const dim = 24
	initial := randx.NormalVector(randx.New(2), dim, 0, 1)
	server, err := NewServer(ServerConfig{InitialParams: initial, AggregationGoal: 2, Rounds: 100}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	bin := dialScripted(t, lis.Addr().String(), CodecBinary)
	defer bin.conn.Close()
	gobc := dialScripted(t, lis.Addr().String(), CodecGob)
	defer gobc.conn.Close()
	step := 0
	update := func(w *scriptedWire, base int) *ServerMsg {
		step++
		w.send(t, &ClientMsg{Update: &UpdateMsg{BaseVersion: base, Delta: scriptDelta(1, step, dim)}})
		return w.recv(t)
	}
	expect := func(who string, reply *ServerMsg, version int, params []float64) {
		t.Helper()
		if reply.Task == nil || reply.Task.Version != version || !sameSlabBits(reply.Task.Params, params) {
			t.Fatalf("%s: reply %+v, want version %d and the expected model", who, reply, version)
		}
		if server.Version() != version || !sameSlabBits(server.FinalParams(), params) {
			t.Fatalf("%s: Version / FinalParams disagree with the reply at version %d", who, version)
		}
	}
	adopt := func(seed int64) []float64 {
		model := randx.NormalVector(randx.New(seed), dim, 0, 1)
		if err := server.AdoptGlobal(model); err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), model...)
		for i := range model {
			model[i] = math.NaN() // the server copied on ingest
		}
		return want
	}

	for i, w := range []*scriptedWire{bin, gobc} {
		w.send(t, &ClientMsg{Hello: &Hello{ClientID: i, NumSamples: 10, ModelDim: dim, Codec: Codec(1 - i)}})
		expect("hello", w.recv(t), 0, initial)
	}
	update(bin, 0)
	if reply := update(gobc, 0); reply.Task == nil || reply.Task.Version != 1 {
		t.Fatalf("the second update did not commit round 1: %+v", reply)
	}

	m1 := adopt(3)
	expect("binary, after adoption", update(bin, 1), 1, m1) // buffered, no commit
	if reply := update(gobc, 1); reply.Task == nil || reply.Task.Version != 2 {
		t.Fatalf("the next update did not commit round 2: %+v", reply)
	}
	m2 := adopt(4)
	expect("gob, after adoption", update(gobc, 2), 2, m2)

	if err := server.AdoptGlobal(make([]float64, dim+1)); err == nil {
		t.Error("AdoptGlobal accepted a model of the wrong dimension")
	}
	if server.Version() != 2 || !sameSlabBits(server.FinalParams(), m2) {
		t.Error("a refused AdoptGlobal changed the published model")
	}

	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
