package main

import (
	"bytes"
	"net"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/cluster"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/stats"
	"github.com/asyncfl/asyncfilter/internal/transport"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Layer replays: single-goroutine direct calls into each layer's
// exported functions on the workload's own generated batches, after the
// live run has ended. They give the numbers a tap cannot (exact
// allocation counts, codec cost without a socket, the arithmetic floor)
// and name the end-to-end metric each should move (bench/README.md).

// measure returns the median seconds per call of fn over five samples
// that together take about budget.
func measure(budget time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	once := time.Since(start)
	reps := int(budget / 5 / max(once, time.Microsecond))
	reps = max(reps, 1)
	samples := make([]float64, 5)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		samples[s] = time.Since(t0).Seconds() / float64(reps)
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// memConn is an in-memory net.Conn: reads come from a byte slice, writes
// are counted and discarded. It lets the replays drive the real codecs
// (transport.UpstreamConn) with no socket behind them.
type memConn struct {
	r       *bytes.Reader
	written int64
	keep    *bytes.Buffer // when non-nil, writes are also recorded
}

func (c *memConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error) {
	c.written += int64(len(p))
	if c.keep != nil {
		c.keep.Write(p)
	}
	return len(p), nil
}
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// replayLayers runs every replay that applies to w within about budget
// seconds and records the results in res.
func replayLayers(w *workload, in *fleetInputs, dir string, budget float64, res *runResult) {
	if err := checkOracle(w, goldenDir); err != nil {
		res.problem("%v", err)
	}
	// Nine measured items share the budget.
	per := time.Duration(budget / 9 * float64(time.Second))
	n := w.Goal
	dim := w.Dim
	floats := float64(n * dim)
	batch := replayBatch(w, in, 1)

	// Warm a filter the way the live server's is warm, keeping the state
	// one round back for the diff replay.
	warm, err := core.New(core.DefaultConfig())
	if err != nil {
		res.problem("replay: %v", err)
		return
	}
	var prev []byte
	for round := 1; round <= oracleRounds; round++ {
		if round == oracleRounds {
			if prev, err = warm.SnapshotState(); err != nil {
				res.problem("replay: snapshot: %v", err)
				return
			}
		}
		if _, err := warm.Filter(replayBatch(w, in, round), round); err != nil {
			res.problem("replay: filter: %v", err)
			return
		}
	}

	// transport: the slab codec through the real UpstreamConn.
	msg := &transport.EdgeMsg{Batch: &transport.BatchMsg{BatchID: 1, EdgeVersion: 1, Updates: batch}}
	if w.Tiered {
		// An edge attaches its filter snapshot, in the checkpoint
		// container, to every batch.
		state, _ := warm.SnapshotState()
		msg.Batch.FilterState, _ = checkpoint.Encode(state)
	}
	sink := &memConn{r: bytes.NewReader(nil), keep: &bytes.Buffer{}}
	enc := transport.NewUpstreamConnCodec(sink, transport.CodecBinary, 0, 0, 0)
	if err := enc.WriteEdge(msg); err != nil {
		res.problem("replay: WriteEdge: %v", err)
		return
	}
	wire := append([]byte(nil), sink.keep.Bytes()...) // preamble + one frame
	sink.keep = nil
	before := sink.written
	if err := enc.WriteEdge(msg); err != nil {
		res.problem("replay: WriteEdge: %v", err)
		return
	}
	batchBytes := sink.written - before
	res.set("transport.slab_encode_ns_per_float", 1e9*measure(per, func() { _ = enc.WriteEdge(msg) })/floats)
	res.set("transport.slab_decode_ns_per_float", 1e9*measure(per, func() {
		dec := transport.AcceptUpstreamConn(&memConn{r: bytes.NewReader(wire)}, 0, 0, 0)
		if _, err := dec.ReadEdge(); err != nil {
			panic(err)
		}
	})/floats)
	if w.Tiered {
		res.set("topology.edge_batch_bytes", float64(batchBytes))
	}

	// fl: buffer add and drain, timed separately inside each cycle.
	buf, _ := fl.NewBuffer(n, stalenessLimit)
	var addTime, drainTime time.Duration
	cycles := 0
	for deadline := time.Now().Add(per); time.Now().Before(deadline); cycles++ {
		t0 := time.Now()
		for _, u := range batch {
			buf.Add(u)
		}
		t1 := time.Now()
		buf.Drain()
		addTime += t1.Sub(t0)
		drainTime += time.Since(t1)
	}
	res.set("fl.buffer_add_ns", float64(addTime.Nanoseconds())/float64(cycles*n))
	res.set("fl.buffer_drain_us", float64(drainTime.Nanoseconds())/1e3/float64(cycles))

	// core: exact allocations, and the distance from the arithmetic floor
	// on the same batch.
	round := oracleRounds
	nextBatch := func() []*fl.Update {
		round++
		return replayBatch(w, in, round)
	}
	filterSecs := measure(per, func() { _, _ = warm.Filter(nextBatch(), round) })
	res.set("core.filter_allocs_per_round", testing.AllocsPerRun(5, func() { _, _ = warm.Filter(nextBatch(), round) }))
	ref := batch[0].Delta
	distSecs := measure(per/3, func() {
		for _, u := range batch {
			_ = vecmath.Distance(ref, u.Delta)
		}
	})
	ma := stats.NewVectorMA(dim)
	addVecSecs := measure(per/3, func() {
		for _, u := range batch {
			ma.Add(u.Delta)
		}
	})
	scores := warm.LastScores()
	rng := randx.New(1)
	kmSecs := measure(per/3, func() { _, _ = cluster.KMeans1D(scores, 3, rng, cluster.Options{}) })
	res.set("vecmath.distance_ns_per_float", 1e9*distSecs/floats)
	res.set("vecmath.add_ns_per_float", 1e9*addVecSecs/floats)
	res.set("cluster.kmeans1d_us", 1e6*kmSecs)
	// The floor: one distance per update, two moving-average folds per
	// update (pooled mean, group estimate), one k-means over the scores.
	res.set("core.filter_floor_ratio", ratio(filterSecs, distSecs+2*addVecSecs+kmSecs))

	// core: full snapshot and one-round diff of the warm state.
	var snap, diff []byte
	res.set("core.snapshot_us", 1e6*measure(per/2, func() { snap, _ = warm.SnapshotState() }))
	res.set("core.snapshot_bytes", float64(len(snap)))
	res.set("core.diffstate_us", 1e6*measure(per/2, func() { diff, _ = warm.DiffState(prev) }))
	res.set("core.diffstate_bytes", float64(len(diff)))

	if w.Hostile {
		replayCheckpoint(w, dir, per, batch, snap, res)
	}
	if w.Tiered {
		replayReplRecord(w, per, batch[0].Delta, diff, res)
	}
	if !w.Tiered && !w.Hostile && dim > 1<<12 {
		replayMillion(per, res)
	}
}

// checkpointState mirrors the shape and size of what transport.Server
// writes: model, counters, one session per client, half a batch of
// pending updates, the filter state.
type checkpointState struct {
	FilterName string
	Global     []float64
	Version    int
	Stats      transport.ServerStats
	Sessions   []checkpointSession
	Buffer     fl.BufferState
	Filter     []byte
}

type checkpointSession struct {
	ClientID, NumSamples, ConsecRejects int
	HalfOpen                            bool
	QuarantineRemaining, LeaseRemaining time.Duration
}

func replayCheckpoint(w *workload, dir string, per time.Duration, batch []*fl.Update, filterState []byte, res *runResult) {
	st := checkpointState{FilterName: "asyncfilter", Global: make([]float64, w.Dim), Version: 1, Filter: filterState}
	st.Sessions = make([]checkpointSession, numClients)
	for i := range st.Sessions {
		st.Sessions[i].ClientID, st.Sessions[i].NumSamples = i, 1
	}
	st.Buffer.Updates = batch[:len(batch)/2]
	var blob []byte
	res.set("checkpoint.encode_ms", 1e3*measure(per/2, func() { blob, _ = checkpoint.Encode(&st) }))
	res.set("checkpoint.bytes", float64(len(blob)))
	path := filepath.Join(dir, "replay.ckpt")
	res.set("checkpoint.save_ms", 1e3*measure(per/2, func() {
		if err := checkpoint.Save(path, &st); err != nil {
			panic(err)
		}
	}))
}

// replayReplRecord encodes the record a primary ships to each standby per
// committed batch: the combined delta plus the filter-state diff.
func replayReplRecord(w *workload, per time.Duration, delta []float64, filterDiff []byte, res *runResult) {
	msg := &transport.PrimaryMsg{LatestSeq: 1, Record: &transport.ReplRecord{
		Seq: 1, BatchID: 1, EdgeAddr: "127.0.0.1:0", Delta: delta, Accepted: w.Goal, FilterState: filterDiff,
	}}
	sink := &memConn{r: bytes.NewReader(nil)}
	uc := transport.NewUpstreamConnCodec(sink, transport.CodecBinary, 0, 0, 0)
	if err := uc.WritePrimary(msg); err != nil { // carries the preamble
		res.problem("replay: WritePrimary: %v", err)
		return
	}
	before := sink.written
	_ = uc.WritePrimary(msg)
	res.set("replica.record_bytes", float64(sink.written-before))
	res.set("replica.record_encode_us", 1e6*measure(per, func() { _ = uc.WritePrimary(msg) }))
}

// replayMillion is ROADMAP item 3's stress point: the filter and the
// distance kernel at dim 10^6 on a batch of 16. The vectors are one
// random vector rotated and scaled, which the kernels cannot tell from
// fresh noise and costs a sixteenth of the set-up.
func replayMillion(per time.Duration, res *runResult) {
	const dim, n = 1_000_000, 16
	base := randx.NormalVector(randx.New(1), dim, 0, 1)
	batch := make([]*fl.Update, n)
	for i := range batch {
		d := make([]float64, dim)
		shift := i * 977
		scale := 1 + 0.01*float64(i)
		for k := range d {
			d[k] = scale * base[(k+shift)%dim]
		}
		batch[i] = &fl.Update{ClientID: i, Staleness: 1 + i%2, Delta: d, NumSamples: 1}
	}
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		res.problem("replay: %v", err)
		return
	}
	round := 0
	secs := measure(per, func() {
		round++
		_, _ = f.Filter(batch, round)
	})
	res.set("core.filter_ns_per_float_d1e6", 1e9*secs/float64(n*dim))
	dist := measure(per/2, func() {
		for _, u := range batch {
			_ = vecmath.Distance(base, u.Delta)
		}
	})
	res.set("vecmath.distance_ns_per_float_d1e6", 1e9*dist/float64(n*dim))
}
