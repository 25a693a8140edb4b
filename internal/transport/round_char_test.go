package transport_test

// Round characterisation: the filter → combine → commit sequence (PAPER.md
// §1, Algorithm 1) is driven through a real transport.Server, through a
// topology.Root fed the same rounds as edge batches over UpstreamConn, and
// through the reference loop below, and the three must agree bit for bit:
// the global model, the filter's SnapshotState bytes, and every round's
// accepted / deferred / rejected / dropped-stale counts.
//
// The schedule is one seeded, endless stream of arrivals (honest clients, a
// gradient-scaling attacker, a weak attacker per lag and two colluders that
// send one identical vector) at lags 0/1/2/3/4, cut into rounds the way the
// server cuts them: a round takes arrivals until the buffer — deferred
// carry-over included — reaches the aggregation goal. Four rounds are
// special: a watchdog round on a partial buffer, a round the filter rejects
// entirely, a filter panic and a combiner error. The staleness limit equals
// the largest lag, so a deferred lag-4 update is pushed past it; weak lag-0
// and lag-1 attackers are deferred more than once. The test asserts that
// each of these happened. Determinism comes from lockstep scripting (see
// interop_test.go): nothing here sleeps or reads the clock.
//
// TestRoundCharacterisation passes unchanged before and after the three
// round loops were folded into fl.Engine. The places where they disagreed
// each have their own test, failing before the fold and passing after:
//
//	(a) ServerLR on a non-mean combiner: the simulator scaled the delta,
//	    the servers did not. Resolved: every combiner's delta is scaled by
//	    ServerLR at commit; MeanCombiner returns the unscaled mean.
//	    TestRoundDivergenceServerLR.
//	(b) The root never called RoundObserver.ObserveRound. Resolved: it
//	    does, after every commit. TestRoundDivergenceRootObservesRounds.
//	(c) Deferred updates aged by version − BaseVersion in the server and
//	    by ++ in the root and the simulator. Resolved: one ageing rule, one
//	    round per commit (fl.Buffer.Requeue); the two agree wherever both
//	    are defined and only ++ is defined at the root, whose updates carry
//	    edge-local base versions. No behaviour changed, so the rule is
//	    pinned where it lives: fl.TestEngineAgesDeferredByOneRound.
//	(d) A filter error aborts a simulation and degrades a server to
//	    accept-all. Both kept: the engine falls back and reports the
//	    error, the simulator treats the report as fatal.
//	    fl.TestEngineFilterFailureFallsBackAndReports and
//	    sim.TestFilterErrorIsFatal.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

const (
	charDim    = 16
	charGoal   = 17
	charLimit  = 4
	charRounds = 12
	// The special rounds, by the model version they produce.
	charWatchdogRound   = 4
	charWatchdogPartial = 7
	charRejectAllRound  = 6
	charPanicRound      = 8
	charCombineErrRound = 10
	// charIOTimeout only bounds a wedged read; no step waits on it.
	charIOTimeout = 10 * time.Second
)

var charAggregator = fl.AggregatorConfig{StalenessExponent: 0.5, SampleWeighted: true}

// charArrival is one scripted client update.
type charArrival struct {
	client, lag int
	delta       []float64
}

// charPattern is one cycle of the arrival stream: who reports, how stale,
// and what kind of vector they send.
var charPattern = []struct {
	client, lag int
	kind        string
}{
	{0, 0, "honest"}, {1, 0, "honest"}, {2, 0, "honest"}, {3, 0, "honest"},
	{20, 0, "collude"}, {21, 0, "collude"}, {30, 0, "gd"},
	{4, 1, "honest"}, {5, 1, "honest"}, {22, 1, "weak"},
	{6, 2, "honest"}, {7, 2, "honest"},
	{10, 3, "honest"}, {11, 3, "honest"},
	{8, 4, "honest"}, {9, 4, "honest"}, {23, 4, "weak"},
}

// charStream returns the i-th arrival of the endless stream.
func charStream(i int) charArrival {
	p := charPattern[i%len(charPattern)]
	cycle := int64(i / len(charPattern))
	seed, mean, sd := 1000*int64(p.client)+cycle, 0.1, 0.05
	switch p.kind {
	case "collude": // every colluder of a cycle sends the same vector
		seed, sd = 7_000_000+cycle, 0.2
	case "weak":
		sd = 0.2
	case "gd":
		mean, sd = 0, 20
	}
	return charArrival{client: p.client, lag: p.lag, delta: randx.NormalVector(randx.New(seed), charDim, mean, sd)}
}

func charSamples(client int) int { return 10 + client%3 }

func charInitial() []float64 {
	return randx.NormalVector(randx.New(99), charDim, 0, 1)
}

// charUpdate materialises an arrival for the round that produces version
// round (the server is at round-1 when it arrives).
func charUpdate(a charArrival, round int) *fl.Update {
	return &fl.Update{
		ClientID:    a.client,
		BaseVersion: round - 1 - a.lag,
		Staleness:   a.lag,
		Delta:       append([]float64(nil), a.delta...),
		NumSamples:  charSamples(a.client),
	}
}

// charFaults is the filter and the combiner of one run: core.AsyncFilter
// and fl.MeanCombiner, with the schedule's four scripted faults. Filter
// and Combine of one round run on one goroutine, and rounds are ordered by
// the server's lock, so the plain round field is race-free.
type charFaults struct {
	*core.AsyncFilter
	round int
}

func newCharFaults(t *testing.T) *charFaults {
	t.Helper()
	af, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &charFaults{AsyncFilter: af}
}

func (f *charFaults) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	f.round = round
	switch round {
	case charRejectAllRound:
		res := fl.FilterResult{Decisions: make([]fl.Decision, len(updates))}
		for i := range res.Decisions {
			res.Decisions[i] = fl.Reject
		}
		return res, nil
	case charPanicRound:
		panic("round characterisation: injected filter panic")
	}
	return f.AsyncFilter.Filter(updates, round)
}

func (f *charFaults) Combine(updates []*fl.Update, cfg fl.AggregatorConfig) ([]float64, error) {
	if f.round == charCombineErrRound {
		return nil, errors.New("round characterisation: injected combiner error")
	}
	return fl.MeanCombiner{}.Combine(updates, cfg)
}

// charCounts is one round's verdict tally.
type charCounts struct{ accepted, deferred, rejected, droppedStale int }

// charOutcome is what one driver reports for the whole schedule.
type charOutcome struct {
	global []float64
	state  []byte
	counts []charCounts
}

// charReference is the round sequence written out once, as the
// specification the server and the root are held to. It also fixes how
// many fresh arrivals each round takes (sizes) and notes how often the
// most-deferred update was deferred.
func charReference(t *testing.T) (out charOutcome, sizes []int, maxDeferrals int) {
	f := newCharFaults(t)
	out.global = charInitial()
	var carried []*fl.Update
	deferrals := make(map[*fl.Update]int)
	next := 0
	for round := 1; round <= charRounds; round++ {
		n := charGoal - len(carried)
		if n < 1 {
			n = 1 // a full buffer of deferrals still waits for one fresh arrival
		}
		if round == charWatchdogRound {
			n = charWatchdogPartial
		}
		sizes = append(sizes, n)
		batch := carried
		for ; n > 0; n-- {
			batch = append(batch, charUpdate(charStream(next), round))
			next++
		}
		res, err := charGuardedFilter(f, batch, round)
		var accepted []*fl.Update
		var c charCounts
		carried = nil
		for i, u := range batch {
			switch {
			case err != nil || res.Decisions[i] == fl.Accept: // a failing filter degrades to FedBuff
				accepted = append(accepted, u)
				c.accepted++
			case res.Decisions[i] == fl.Reject:
				c.rejected++
			default:
				c.deferred++
				if deferrals[u]++; deferrals[u] > maxDeferrals {
					maxDeferrals = deferrals[u]
				}
				if u.Staleness++; u.Staleness > charLimit {
					c.droppedStale++
				} else {
					carried = append(carried, u)
				}
			}
		}
		if len(accepted) > 0 {
			if delta, err := f.Combine(accepted, charAggregator); err == nil {
				for i := range out.global {
					out.global[i] += delta[i]
				}
			}
		}
		out.counts = append(out.counts, c)
	}
	out.state = charState(t, f)
	return out, sizes, maxDeferrals
}

func charGuardedFilter(f fl.Filter, batch []*fl.Update, round int) (res fl.FilterResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("filter panic: %v", r)
		}
	}()
	return f.Filter(batch, round)
}

func charState(t *testing.T, f *charFaults) []byte {
	t.Helper()
	state, err := f.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// gobClient is one scripted client connection speaking the legacy gob
// stream (no preamble), strictly request-reply.
type gobClient struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialGobClient(t *testing.T, addr string, id, dim int) *gobClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, charIOTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	c := &gobClient{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	reply := c.roundTrip(t, &transport.ClientMsg{Hello: &transport.Hello{
		ClientID: id, NumSamples: charSamples(id), ModelDim: dim,
	}})
	if reply.Task == nil {
		t.Fatalf("client %d: no initial task in %+v", id, reply)
	}
	return c
}

func (c *gobClient) roundTrip(t *testing.T, msg *transport.ClientMsg) *transport.ServerMsg {
	t.Helper()
	_ = c.conn.SetDeadline(time.Now().Add(charIOTimeout))
	if err := c.enc.Encode(msg); err != nil {
		t.Fatalf("scripted send: %v", err)
	}
	var reply transport.ServerMsg
	if err := c.dec.Decode(&reply); err != nil {
		t.Fatalf("scripted recv: %v", err)
	}
	return &reply
}

// startCharServer serves a transport.Server on loopback. stop closes it and
// waits for every handler to exit, after which the filter may be read; it
// runs at the end of the test at the latest.
func startCharServer(t *testing.T, cfg transport.ServerConfig, filter fl.Filter, combiner fl.Combiner) (server *transport.Server, addr string, stop func()) {
	t.Helper()
	server, err := transport.NewServer(cfg, filter, combiner)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			_ = server.Close()
			if err := <-serveErr; err != nil {
				t.Errorf("server serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return server, lis.Addr().String(), stop
}

// charEdge is a scripted edge uplink into a root.
type charEdge struct {
	uc   *transport.UpstreamConn
	next uint64
}

// startCharRoot serves a topology.Root on loopback and returns it with a
// scripted edge that has said Hello; stop is as for startCharServer.
func startCharRoot(t *testing.T, cfg topology.RootConfig, filter fl.Filter, combiner fl.Combiner) (root *topology.Root, edge *charEdge, stop func()) {
	t.Helper()
	root, err := topology.NewRoot(cfg, filter, combiner)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- root.Serve(lis) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			_ = root.Close()
			if err := <-serveErr; err != nil {
				t.Errorf("root serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	conn, err := net.DialTimeout("tcp", lis.Addr().String(), charIOTimeout)
	if err != nil {
		t.Fatal(err)
	}
	edge = &charEdge{uc: transport.NewUpstreamConnCodec(conn, transport.CodecBinary, 0, charIOTimeout, charIOTimeout)}
	t.Cleanup(func() { _ = edge.uc.Close() })
	reply := edge.roundTrip(t, &transport.EdgeMsg{Hello: &transport.EdgeHello{
		EdgeID: 0, ModelDim: len(cfg.InitialParams), ClientAddr: "127.0.0.1:1", NextBatch: 1,
	}})
	if reply.Nack != 0 || reply.Task == nil {
		t.Fatalf("edge hello refused: %+v", reply)
	}
	return root, edge, stop
}

func (e *charEdge) roundTrip(t *testing.T, msg *transport.EdgeMsg) *transport.RootMsg {
	t.Helper()
	if err := e.uc.WriteEdge(msg); err != nil {
		t.Fatalf("write edge msg: %v", err)
	}
	reply, err := e.uc.ReadRoot()
	if err != nil {
		t.Fatalf("read root reply: %v", err)
	}
	return reply
}

// batch sends the next batch and returns the version the root replied with.
func (e *charEdge) batch(t *testing.T, updates []*fl.Update) int {
	t.Helper()
	e.next++
	reply := e.roundTrip(t, &transport.EdgeMsg{Batch: &transport.BatchMsg{BatchID: e.next, Updates: updates}})
	if reply.Nack != 0 || reply.Task == nil || reply.Ack != e.next {
		t.Fatalf("batch %d: unexpected reply %+v", e.next, reply)
	}
	return reply.Task.Version
}

// charThroughServer plays the schedule into a real transport.Server, one
// scripted connection per client, in lockstep.
func charThroughServer(t *testing.T, sizes []int) charOutcome {
	f := newCharFaults(t)
	server, addr, stop := startCharServer(t, transport.ServerConfig{
		InitialParams:   charInitial(),
		AggregationGoal: charGoal,
		StalenessLimit:  charLimit,
		Rounds:          charRounds + 1, // never completes: the script ends it
		Aggregator:      charAggregator,
	}, f, f)

	clients := make(map[int]*gobClient)
	var out charOutcome
	next := 0
	for round := 1; round <= charRounds; round++ {
		before := server.Stats()
		for k := 0; k < sizes[round-1]; k++ {
			a := charStream(next)
			next++
			c := clients[a.client]
			if c == nil {
				c = dialGobClient(t, addr, a.client, charDim)
				clients[a.client] = c
			}
			reply := c.roundTrip(t, &transport.ClientMsg{Update: &transport.UpdateMsg{
				BaseVersion: round - 1 - a.lag, Delta: a.delta,
			}})
			want := round - 1
			if k == sizes[round-1]-1 && round != charWatchdogRound {
				want = round // the arrival that reaches the goal commits the round before its reply
			}
			if reply.Task == nil || reply.Task.Version != want {
				t.Fatalf("round %d arrival %d: reply %+v, want a task at version %d", round, k, reply, want)
			}
		}
		if round == charWatchdogRound {
			server.WatchdogRound()
		}
		after := server.Stats()
		if after.Rounds != round {
			t.Fatalf("server at round %d after the arrivals of round %d", after.Rounds, round)
		}
		out.counts = append(out.counts, charCounts{
			after.Accepted - before.Accepted, after.Deferred - before.Deferred,
			after.Rejected - before.Rejected, after.DroppedStale - before.DroppedStale,
		})
	}
	stats := server.Stats()
	if stats.WatchdogRounds != 1 || stats.HandlerPanics != 1 {
		t.Errorf("server: %d watchdog rounds, %d recovered panics; want 1 and 1", stats.WatchdogRounds, stats.HandlerPanics)
	}
	stop()
	out.global, out.state = server.FinalParams(), charState(t, f)
	return out
}

// charThroughRoot plays the same rounds into a topology.Root as the
// batches of one edge.
func charThroughRoot(t *testing.T, sizes []int) charOutcome {
	f := newCharFaults(t)
	root, edge, stop := startCharRoot(t, topology.RootConfig{
		InitialParams:  charInitial(),
		Rounds:         charRounds + 1,
		StalenessLimit: charLimit,
		Aggregator:     charAggregator,
	}, f, f)

	var out charOutcome
	next := 0
	for round := 1; round <= charRounds; round++ {
		before := root.Stats()
		var updates []*fl.Update
		for k := 0; k < sizes[round-1]; k++ {
			updates = append(updates, charUpdate(charStream(next), round))
			next++
		}
		if got := edge.batch(t, updates); got != round {
			t.Fatalf("root at version %d after batch %d", got, round)
		}
		after := root.Stats()
		out.counts = append(out.counts, charCounts{
			after.Accepted - before.Accepted, after.Deferred - before.Deferred,
			after.Rejected - before.Rejected, after.DroppedStale - before.DroppedStale,
		})
	}
	if stats := root.Stats(); stats.HandlerPanics != 1 {
		t.Errorf("root: %d recovered panics, want 1", stats.HandlerPanics)
	}
	stop()
	out.global, out.state = root.FinalParams(), charState(t, f)
	return out
}

// sameBits reports whether two vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRoundCharacterisation(t *testing.T) {
	ref, sizes, maxDeferrals := charReference(t)

	// The schedule must exercise what its header claims.
	var total charCounts
	for i, c := range ref.counts {
		t.Logf("round %2d: %2d fresh arrivals, %+v", i+1, sizes[i], c)
		total.accepted += c.accepted
		total.deferred += c.deferred
		total.rejected += c.rejected
		total.droppedStale += c.droppedStale
	}
	if total.rejected == 0 || total.droppedStale == 0 || maxDeferrals < 2 {
		t.Fatalf("schedule too tame: totals %+v, most-deferred update deferred %d times", total, maxDeferrals)
	}
	if c := ref.counts[charRejectAllRound-1]; c.accepted != 0 || c.deferred != 0 || c.rejected == 0 {
		t.Fatalf("round %d was not rejected entirely: %+v", charRejectAllRound, c)
	}
	if c := ref.counts[charPanicRound-1]; c.deferred != 0 || c.rejected != 0 {
		t.Fatalf("round %d did not fall back to accept-all: %+v", charPanicRound, c)
	}

	for name, got := range map[string]charOutcome{
		"transport.Server": charThroughServer(t, sizes),
		"topology.Root":    charThroughRoot(t, sizes),
	} {
		for i := range ref.counts {
			if got.counts[i] != ref.counts[i] {
				t.Errorf("%s round %d: counts %+v, reference %+v", name, i+1, got.counts[i], ref.counts[i])
			}
		}
		if !sameBits(got.global, ref.global) {
			t.Errorf("%s: global model differs from the reference\n got %v\nwant %v", name, got.global, ref.global)
		}
		if !bytes.Equal(got.state, ref.state) {
			t.Errorf("%s: filter state differs from the reference (%d vs %d bytes)", name, len(got.state), len(ref.state))
		}
	}
}

// firstCombiner is a non-mean combiner: the round's delta is its first
// accepted update, unweighted.
type firstCombiner struct{}

func (firstCombiner) Combine(updates []*fl.Update, _ fl.AggregatorConfig) ([]float64, error) {
	return append([]float64(nil), updates[0].Delta...), nil
}
func (firstCombiner) Name() string { return "first" }

// TestRoundDivergenceServerLR pins divergence (a): ServerLR scales the
// delta of every combiner, in the server and in the root as in the
// simulator.
func TestRoundDivergenceServerLR(t *testing.T) {
	initial := charInitial()
	a := charStream(0)
	agg := fl.AggregatorConfig{ServerLR: 0.5}
	want := make([]float64, charDim)
	for i := range want {
		want[i] = initial[i] + 0.5*a.delta[i]
	}

	server, addr, _ := startCharServer(t, transport.ServerConfig{
		InitialParams: initial, AggregationGoal: 1, Rounds: 2, Aggregator: agg,
	}, nil, firstCombiner{})
	c := dialGobClient(t, addr, a.client, charDim)
	if reply := c.roundTrip(t, &transport.ClientMsg{Update: &transport.UpdateMsg{Delta: a.delta}}); reply.Task == nil || reply.Task.Version != 1 {
		t.Fatalf("server did not commit the round: %+v", reply)
	}
	if got := server.FinalParams(); !sameBits(got, want) {
		t.Errorf("server ignored ServerLR on a non-mean combiner:\n got %v\nwant %v", got, want)
	}

	root, edge, _ := startCharRoot(t, topology.RootConfig{InitialParams: initial, Rounds: 2, Aggregator: agg}, nil, firstCombiner{})
	edge.batch(t, []*fl.Update{charUpdate(a, 1)})
	if got := root.FinalParams(); !sameBits(got, want) {
		t.Errorf("root ignored ServerLR on a non-mean combiner:\n got %v\nwant %v", got, want)
	}
}

// observingFilter accepts everything and records what ObserveRound is
// told.
type observingFilter struct {
	fl.Passthrough
	seen []string
}

func (o *observingFilter) ObserveRound(round int, global []float64, accepted []*fl.Update) {
	ids := make([]int, len(accepted))
	for i, u := range accepted {
		ids[i] = u.ClientID
	}
	bits := make([]uint64, len(global))
	for i, g := range global {
		bits[i] = math.Float64bits(g)
	}
	o.seen = append(o.seen, fmt.Sprint(round, ids, bits))
}

// TestRoundDivergenceRootObservesRounds pins divergence (b): a
// RoundObserver filter hears about every committed round at the root
// exactly as it does at a server.
func TestRoundDivergenceRootObservesRounds(t *testing.T) {
	const rounds, goal = 3, 2
	atServer, atRoot := &observingFilter{}, &observingFilter{}

	_, addr, stopServer := startCharServer(t, transport.ServerConfig{
		InitialParams: charInitial(), AggregationGoal: goal, Rounds: rounds + 1,
	}, atServer, nil)
	clients := make(map[int]*gobClient)
	for i := 0; i < rounds*goal; i++ {
		a := charStream(i)
		if clients[a.client] == nil {
			clients[a.client] = dialGobClient(t, addr, a.client, charDim)
		}
		clients[a.client].roundTrip(t, &transport.ClientMsg{Update: &transport.UpdateMsg{BaseVersion: i / goal, Delta: a.delta}})
	}

	stopServer()

	_, edge, stopRoot := startCharRoot(t, topology.RootConfig{InitialParams: charInitial(), Rounds: rounds + 1}, atRoot, nil)
	for round := 1; round <= rounds; round++ {
		var updates []*fl.Update
		for k := 0; k < goal; k++ {
			updates = append(updates, charUpdate(charStream((round-1)*goal+k), round))
		}
		edge.batch(t, updates)
	}
	stopRoot()

	if len(atServer.seen) != rounds {
		t.Fatalf("server delivered %d observations, want %d", len(atServer.seen), rounds)
	}
	if fmt.Sprint(atRoot.seen) != fmt.Sprint(atServer.seen) {
		t.Errorf("root observations differ from the server's:\n root   %v\n server %v", atRoot.seen, atServer.seen)
	}
}
