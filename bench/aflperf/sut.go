package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/replica"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// The system under test runs in a child process (`aflperf sut`) so that
// getrusage charges the server's CPU and memory to the server alone. It
// is benchmark code calling the same internal constructors the public
// facade calls; the parent drives it over stdin/stdout with one JSON
// object per line.

// sutConfig is the first line the parent writes.
type sutConfig struct {
	Workload string
	// Traced wraps the filters with filterTap and sizes the entry rings;
	// timing still only happens while tracing is switched on.
	Traced bool
	// Dir is a scratch directory inside the checkout for checkpoints,
	// vote ledgers and the tap dump.
	Dir string
	// Ring is the capacity of each tap ring. The parent sizes it so that
	// every update of the paced phase is still in the ring at exit.
	Ring int
}

// sutRequest is every later line.
type sutRequest struct {
	// Cmd is "stats", "trace" or "finish".
	Cmd string
	// Mem adds the stop-the-world memory statistics to a stats reply.
	Mem bool
	// On is the new tracing state for "trace".
	On bool
}

// sutReady answers the config line.
type sutReady struct {
	// Addrs are the client-facing addresses; client id homes on
	// Addrs[id mod len].
	Addrs []string
	Err   string
}

// tapStats is one tap's live counters.
type tapStats struct {
	Name                                    string
	Accepted                                int64
	FilterNs, FilterCalls, FilterUpdates    int64
	CombineNs, CombineCalls, CombineUpdates int64
}

// sutStats answers "stats" and, with the final fields set, "finish".
type sutStats struct {
	WallNs int64
	// CPUNs is the child's user+system CPU time (getrusage).
	CPUNs    int64
	MaxRSSKB int64
	// Mem fields are set only when requested.
	Mallocs, AllocBytes uint64
	GCCPUNs             int64

	// Servers are the client-facing transport servers (one, or one per
	// edge).
	Servers []transport.ServerStats
	Edges   []topology.EdgeStats
	Roots   []topology.RootStats
	Nodes   []replica.Stats
	Roles   []string
	// Retired is the updates_per_s numerator: Accepted + Rejected at the
	// tier that owns the global model.
	Retired int64
	// Taps[0] is the model-owning tier's tap, then one per edge.
	Taps []tapStats
	// Lag is primary version minus standby version, sampled every 100 ms
	// while tracing.
	LagSum, LagMax, LagSamples int64

	// Finish-only.
	ParamHashes []string
	GroupsLive  int
	DumpPath    string
	Err         string
}

// sutDump is the file the child writes at finish.
type sutDump struct {
	Taps []tapDump
}

// hugeRounds keeps a server from ever declaring the deployment done.
const hugeRounds = 1 << 40

// sut is the running deployment.
type sut struct {
	w       *workload
	cfg     sutConfig
	tracing atomic.Bool
	taps    []*tap
	// modelFilter is the filter of the tier that owns the global model
	// (the first one built).
	modelFilter *core.AsyncFilter

	servers []*transport.Server // single shape
	edges   []*topology.Edge
	roots   []*topology.Root
	nodes   []*replica.Node
	addrs   []string

	wg                         sync.WaitGroup
	stopLag                    chan struct{}
	lagSum, lagMax, lagSamples atomic.Int64
}

func sutMain() int {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<16), 1<<20)
	out := json.NewEncoder(os.Stdout)
	if !in.Scan() {
		fmt.Fprintln(os.Stderr, "aflperf sut: no config on stdin")
		return 2
	}
	var cfg sutConfig
	if err := json.Unmarshal(in.Bytes(), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "aflperf sut: config:", err)
		return 2
	}
	s, err := startSUT(cfg)
	if err != nil {
		_ = out.Encode(sutReady{Err: err.Error()})
		return 1
	}
	_ = out.Encode(sutReady{Addrs: s.addrs})
	for in.Scan() {
		var req sutRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			fmt.Fprintln(os.Stderr, "aflperf sut: request:", err)
			return 2
		}
		switch req.Cmd {
		case "stats":
			_ = out.Encode(s.stats(req.Mem))
		case "trace":
			s.tracing.Store(req.On)
			_ = out.Encode(sutStats{})
		case "finish":
			_ = out.Encode(s.finish())
			return 0
		}
	}
	// The parent went away without finishing: tear down quietly.
	s.close()
	return 1
}

// addTap builds one server's tap and filter pair and returns the
// arguments for its constructor.
func (s *sut) addTap(name string) (fl.Filter, fl.Combiner, error) {
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	t := newTap(name, &s.tracing, s.cfg.Ring, s.cfg.Traced)
	s.taps = append(s.taps, t)
	if s.modelFilter == nil {
		s.modelFilter = f
	}
	if s.cfg.Traced {
		return filterTap{AsyncFilter: f, t: t}, t, nil
	}
	return f, t, nil
}

// serverConfig is the client-facing transport configuration, with the
// deadlines and guards aflserver ships as defaults.
func (s *sut) serverConfig() transport.ServerConfig {
	cfg := transport.ServerConfig{
		InitialParams:   make([]float64, s.w.Dim),
		AggregationGoal: s.w.Goal,
		StalenessLimit:  stalenessLimit,
		Rounds:          hugeRounds,
		ReadTimeout:     2 * time.Minute,
		WriteTimeout:    30 * time.Second,
		MaxMessageBytes: 64 << 20,
		RoundTimeout:    time.Minute,
	}
	if s.w.Hostile {
		cfg.QuarantineAfter = hostileQuarantineAfter
		cfg.QuarantineCooldown = hostileCooldown
		// No CheckpointPath: the benchmark may write only inside its
		// checkout, and an fsync on that disk stalls the round loop for
		// up to four seconds at a time (measured: commit p50 of 4 s in
		// two runs out of ten). Checkpoint cost is measured by replay
		// instead (checkpoint.* in replay.go).
		cfg.Obsv = obsv.NewHub(0)
	}
	return cfg
}

func startSUT(cfg sutConfig) (*sut, error) {
	w, err := workloadByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	s := &sut{w: w, cfg: cfg, stopLag: make(chan struct{})}
	if w.Tiered {
		err = s.startTiered()
	} else {
		err = s.startSingle()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sut) startSingle() error {
	filter, combiner, err := s.addTap("server")
	if err != nil {
		return err
	}
	srv, err := transport.NewServer(s.serverConfig(), filter, combiner)
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.servers = []*transport.Server{srv}
	s.addrs = []string{lis.Addr().String()}
	s.serve(func() error { return srv.Serve(lis) })
	return nil
}

// serve runs one Serve loop until the deployment is closed.
func (s *sut) serve(fn func() error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "aflperf sut: serve:", err)
		}
	}()
}

// startTiered brings up the quorum-replicated root group, then the
// edges, and waits for both standbys to attach so the load never races
// the initial snapshot.
func (s *sut) startTiered() error {
	edgeLis := make([]net.Listener, numReplicas)
	replLis := make([]net.Listener, numReplicas)
	peers := make([]string, numReplicas)
	replAddrs := make([]string, numReplicas)
	for i := range edgeLis {
		var err error
		if edgeLis[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		if replLis[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		peers[i] = edgeLis[i].Addr().String()
		replAddrs[i] = replLis[i].Addr().String()
	}
	for i := 0; i < numReplicas; i++ {
		name := "root"
		if i > 0 {
			name = fmt.Sprintf("standby%d", i)
		}
		filter, combiner, err := s.addTap(name)
		if err != nil {
			return err
		}
		root, err := topology.NewRoot(topology.RootConfig{
			InitialParams:     make([]float64, s.w.Dim),
			Rounds:            hugeRounds,
			StalenessLimit:    stalenessLimit,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      30 * time.Second,
			MaxMessageBytes:   64 << 20,
			EdgeLeaseDuration: 5 * time.Second,
		}, filter, combiner)
		if err != nil {
			return err
		}
		ncfg := replica.Config{
			NodeID:       i,
			ReplListener: replLis[i],
			Peers:        peers,
			VotePath:     filepath.Join(s.cfg.Dir, fmt.Sprintf("vote%d.ckpt", i)),
			Lease:        replicaLease,
			Codec:        transport.CodecBinary,
			Seed:         int64(i) + 1,
		}
		for j, a := range replAddrs {
			if j != i {
				ncfg.VotePeers = append(ncfg.VotePeers, a)
			}
		}
		if i != 0 {
			ncfg.Upstreams = []string{replAddrs[0]}
		}
		node, err := replica.NewNode(ncfg, root)
		if err != nil {
			_ = root.Close()
			return err
		}
		s.roots = append(s.roots, root)
		s.nodes = append(s.nodes, node)
		lis := edgeLis[i]
		s.serve(func() error { return node.Serve(lis) })
	}
	for i := 0; i < numEdges; i++ {
		filter, combiner, err := s.addTap(fmt.Sprintf("edge%d", i))
		if err != nil {
			return err
		}
		edge, err := topology.NewEdge(topology.EdgeConfig{
			EdgeID:      i,
			RootAddr:    peers[0],
			Server:      s.serverConfig(),
			UplinkCodec: transport.CodecBinary,
			Seed:        int64(i) + 1,
		}, filter, combiner)
		if err != nil {
			return err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.edges = append(s.edges, edge)
		s.addrs = append(s.addrs, lis.Addr().String())
		s.serve(func() error { return edge.Serve(lis) })
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.nodes[0].Stats().StandbyAttaches < numReplicas-1 || !s.edgesUp() {
		if time.Now().After(deadline) {
			return errors.New("tiered start: standbys or edge uplinks did not attach within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.cfg.Traced {
		s.wg.Add(1)
		go s.sampleLag()
	}
	return nil
}

func (s *sut) edgesUp() bool {
	for _, e := range s.edges {
		if !e.LinkUp() {
			return false
		}
	}
	return true
}

// sampleLag records how far the standbys trail the primary, in records,
// ten times a second while tracing is on.
func (s *sut) sampleLag() {
	defer s.wg.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopLag:
			return
		case <-tick.C:
		}
		if !s.tracing.Load() {
			continue
		}
		head := s.roots[0].Version()
		for _, r := range s.roots[1:] {
			lag := int64(head - r.Version())
			if lag < 0 {
				lag = 0
			}
			s.lagSum.Add(lag)
			s.lagSamples.Add(1)
			if lag > s.lagMax.Load() {
				s.lagMax.Store(lag)
			}
		}
	}
}

func rusageSelf() (cpuNs, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), ru.Maxrss
}

func (s *sut) stats(mem bool) sutStats {
	st := sutStats{WallNs: time.Now().UnixNano()}
	st.CPUNs, st.MaxRSSKB = rusageSelf()
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st.Mallocs, st.AllocBytes = ms.Mallocs, ms.TotalAlloc
		sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindFloat64 {
			st.GCCPUNs = int64(sample[0].Value.Float64() * 1e9)
		}
	}
	for _, srv := range s.servers {
		st.Servers = append(st.Servers, srv.Stats())
	}
	for _, e := range s.edges {
		st.Servers = append(st.Servers, e.Server().Stats())
		st.Edges = append(st.Edges, e.Stats())
	}
	for _, r := range s.roots {
		st.Roots = append(st.Roots, r.Stats())
	}
	for _, n := range s.nodes {
		st.Nodes = append(st.Nodes, n.Stats())
		st.Roles = append(st.Roles, n.Role().String())
	}
	if s.w.Tiered {
		st.Retired = int64(st.Roots[0].Accepted + st.Roots[0].Rejected)
	} else {
		st.Retired = int64(st.Servers[0].Accepted + st.Servers[0].Rejected)
	}
	for _, t := range s.taps {
		st.Taps = append(st.Taps, tapStats{
			Name: t.name, Accepted: t.accepted.Load(),
			FilterNs: t.filterNs.Load(), FilterCalls: t.filterCalls.Load(), FilterUpdates: t.filterUpdates.Load(),
			CombineNs: t.combineNs.Load(), CombineCalls: t.combineCalls.Load(), CombineUpdates: t.combineUpdates.Load(),
		})
	}
	st.LagSum, st.LagMax, st.LagSamples = s.lagSum.Load(), s.lagMax.Load(), s.lagSamples.Load()
	return st
}

// quiesceTiered waits until every edge batch is acknowledged and both
// standbys have applied everything the primary committed.
func (s *sut) quiesceTiered() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		for _, e := range s.edges {
			if st := e.Stats(); st.BatchesAcked+st.BatchesShed < st.BatchesCommitted {
				settled = false
			}
		}
		head := s.roots[0].Version()
		for _, r := range s.roots[1:] {
			if r.Version() != head {
				settled = false
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("tiered quiesce: replication did not settle within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func hashParams(p []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range p {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// finish quiesces and closes the deployment, then reports the final
// counters, the parameter hashes and where the tap dump went.
func (s *sut) finish() sutStats {
	var errs []error
	if s.w.Tiered {
		errs = append(errs, s.quiesceTiered())
		// Edges first: closing a server waits for its in-flight round, so
		// the counters read below are final.
		for _, e := range s.edges {
			errs = append(errs, e.Close())
		}
	} else {
		errs = append(errs, s.servers[0].Close())
	}
	st := s.stats(true)
	for _, srv := range s.servers {
		st.ParamHashes = append(st.ParamHashes, hashParams(srv.FinalParams()))
	}
	for _, r := range s.roots {
		st.ParamHashes = append(st.ParamHashes, hashParams(r.FinalParams()))
	}
	s.close()
	st.GroupsLive = len(s.modelFilter.Snapshot().Groups)

	dump := sutDump{}
	for _, t := range s.taps {
		dump.Taps = append(dump.Taps, t.dump())
	}
	st.DumpPath = filepath.Join(s.cfg.Dir, "taps.gob")
	errs = append(errs, writeGob(st.DumpPath, &dump))
	if err := errors.Join(errs...); err != nil {
		st.Err = err.Error()
	}
	return st
}

// close tears everything down and waits for the Serve loops.
func (s *sut) close() {
	close(s.stopLag)
	for _, e := range s.edges {
		_ = e.Close()
	}
	for _, n := range s.nodes {
		_ = n.Close()
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	s.wg.Wait()
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(bufio.NewReaderSize(f, 1<<20)).Decode(v)
}
