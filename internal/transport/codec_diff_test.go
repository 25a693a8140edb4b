package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
)

// This file is the differential codec suite: for every wire envelope, a
// randomized message encoded by the binary codec and decoded by its
// binary reader must be reflect.DeepEqual to the SAME message round-
// tripped through the legacy gob stream. Gob is the reference semantics
// (it has been fuzz-hardened since PR 1), so any divergence — a dropped
// field, a sign flip, a nil-vs-empty mismatch — fails here before it can
// ship. Generators use finite floats because reflect.DeepEqual cannot
// compare NaN; bit-exactness of non-finite slabs has its own test below.

// diffTrials is the number of randomized messages per direction. The
// suite runs under -race in make check, so keep it brisk.
const diffTrials = 300

// gobRT round-trips v through a fresh gob stream into out (a pointer to
// a zero struct), yielding the reference decoding.
func gobRT(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
}

// binPair builds a writer/reader binConn pair over one in-memory buffer
// (no preamble: the test drives frames directly).
func binPair(max int64) (*binConn, *binConn) {
	var buf bytes.Buffer
	w := newBinConn(&buf, max, false)
	r := newBinConn(&buf, max, false)
	return w, r
}

// genVec returns a finite random vector of the given length (nil when
// n == 0, matching gob's empty-is-absent decoding).
func genVec(r *rand.Rand, n int) []float64 {
	if n == 0 {
		return nil
	}
	return randx.NormalVector(r, n, 0, 3)
}

// genBlob returns nil or a short random byte string.
func genBlob(r *rand.Rand) []byte {
	if r.Intn(2) == 0 {
		return nil
	}
	b := make([]byte, 1+r.Intn(24))
	r.Read(b)
	return b
}

func genUpdate(r *rand.Rand) *fl.Update {
	return &fl.Update{
		ClientID:    r.Intn(100),
		BaseVersion: r.Intn(1000) - 2,
		Staleness:   r.Intn(50) - 1,
		NumSamples:  1 + r.Intn(500),
		Delta:       genVec(r, r.Intn(7)),
	}
}

func genClientMsg(r *rand.Rand) *ClientMsg {
	switch r.Intn(4) {
	case 0:
		return &ClientMsg{Heartbeat: true}
	case 1:
		return &ClientMsg{Hello: &Hello{
			ClientID:   r.Intn(100),
			NumSamples: 1 + r.Intn(500),
			ModelDim:   1 + r.Intn(8),
			Codec:      Codec(r.Intn(2)),
		}}
	default:
		// The hot shape. Deltas are never empty on the wire: Hello
		// validation pins ModelDim >= 1 before the first update.
		return &ClientMsg{Update: &UpdateMsg{
			BaseVersion: r.Intn(1000),
			Delta:       genVec(r, 1+r.Intn(6)),
		}}
	}
}

func genServerMsg(r *rand.Rand) *ServerMsg {
	switch r.Intn(6) {
	case 0:
		return &ServerMsg{Pong: true}
	case 1:
		return &ServerMsg{Done: true, Goodbye: r.Intn(2) == 0}
	case 2:
		return &ServerMsg{
			Nack:       NackCode(1 + r.Intn(7)),
			RetryAfter: time.Duration(r.Intn(5000)) * time.Millisecond,
		}
	case 3:
		shards := make([]string, 1+r.Intn(3))
		for i := range shards {
			shards[i] = "127.0.0.1:9000"
		}
		return &ServerMsg{
			Task:         &Task{Version: r.Intn(100), Params: genVec(r, 1+r.Intn(6))},
			Shards:       shards,
			ShardVersion: 1 + r.Intn(10),
		}
	default:
		// The hot shape: a task, optionally carrying a nack verdict.
		msg := &ServerMsg{Task: &Task{Version: r.Intn(1000), Params: genVec(r, r.Intn(7))}}
		if r.Intn(2) == 0 {
			msg.Nack = NackCode(1 + r.Intn(7))
			msg.RetryAfter = time.Duration(r.Intn(5000)) * time.Millisecond
		}
		return msg
	}
}

func genEdgeMsg(r *rand.Rand) *EdgeMsg {
	switch r.Intn(5) {
	case 0:
		return &EdgeMsg{Heartbeat: true, Epoch: uint64(r.Intn(50))}
	case 1:
		return &EdgeMsg{Hello: &EdgeHello{
			EdgeID:     r.Intn(10),
			ModelDim:   1 + r.Intn(8),
			ClientAddr: "127.0.0.1:9100",
			NextBatch:  uint64(1 + r.Intn(100)),
		}, Epoch: uint64(r.Intn(50))}
	default:
		// The hot shape: a committed batch of filter-accepted updates.
		batch := &BatchMsg{
			BatchID:     uint64(1 + r.Intn(1000)),
			EdgeVersion: r.Intn(500),
			FilterState: genBlob(r),
		}
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			batch.Updates = append(batch.Updates, genUpdate(r))
		}
		return &EdgeMsg{Batch: batch, Epoch: uint64(r.Intn(50))}
	}
}

func genRootMsg(r *rand.Rand) *RootMsg {
	switch r.Intn(6) {
	case 0:
		return &RootMsg{Nack: NackCode(1 + r.Intn(7)), Epoch: uint64(r.Intn(50))}
	case 1:
		return &RootMsg{Done: r.Intn(2) == 0, Goodbye: r.Intn(2) == 1, Nack: NackCode(r.Intn(2))}
	case 2:
		return &RootMsg{
			Ack:   uint64(r.Intn(100)),
			Epoch: uint64(r.Intn(50)),
			Shards: &ShardMap{Version: 1 + r.Intn(10), Edges: []ShardEntry{
				{EdgeID: r.Intn(5), Addr: "127.0.0.1:9100"},
			}},
			Handoff:      genBlob(r),
			Peers:        []string{"127.0.0.1:9200"},
			PeersVersion: 1 + r.Intn(5),
		}
	default:
		// The hot shape: ack + epoch, optionally a task push or a pong.
		msg := &RootMsg{Ack: uint64(r.Intn(1000)), Epoch: uint64(r.Intn(50))}
		if r.Intn(2) == 0 {
			msg.Task = &Task{Version: r.Intn(500), Params: genVec(r, r.Intn(7))}
		}
		msg.Pong = r.Intn(2) == 0
		return msg
	}
}

func genReplicaMsg(r *rand.Rand) *ReplicaMsg {
	switch r.Intn(4) {
	case 0:
		return &ReplicaMsg{Hello: &ReplHello{
			NodeID:   r.Intn(5),
			Epoch:    uint64(r.Intn(50)),
			NextSeq:  uint64(1 + r.Intn(100)),
			FullSync: r.Intn(2) == 0,
		}}
	case 1:
		return &ReplicaMsg{Vote: &VoteRequest{
			CandidateID: r.Intn(5),
			Epoch:       uint64(1 + r.Intn(50)),
			LastSeq:     uint64(r.Intn(100)),
		}}
	default:
		// The hot shape: one acknowledgement per primary push.
		return &ReplicaMsg{AckSeq: uint64(r.Intn(1000)), Epoch: uint64(r.Intn(50))}
	}
}

func genPrimaryMsg(r *rand.Rand) *PrimaryMsg {
	switch r.Intn(7) {
	case 0:
		return &PrimaryMsg{Heartbeat: true, Epoch: uint64(r.Intn(50)), LatestSeq: uint64(r.Intn(1000))}
	case 1:
		return &PrimaryMsg{Snapshot: append(genBlob(r), 1), Epoch: uint64(r.Intn(50)), LatestSeq: uint64(r.Intn(1000))}
	case 2:
		return &PrimaryMsg{Nack: NackCode(1 + r.Intn(7)), Epoch: uint64(r.Intn(50))}
	case 3:
		return &PrimaryMsg{Goodbye: true, Epoch: uint64(r.Intn(50))}
	case 4:
		return &PrimaryMsg{Grant: &VoteGrant{
			VoterID: r.Intn(5),
			Granted: r.Intn(2) == 0,
			Epoch:   uint64(1 + r.Intn(50)),
			LastSeq: uint64(r.Intn(100)),
		}}
	default:
		// The hot shape: one incremental replication log record.
		return &PrimaryMsg{
			Epoch:     uint64(r.Intn(50)),
			LatestSeq: uint64(r.Intn(1000)),
			Record: &ReplRecord{
				Seq:          uint64(1 + r.Intn(1000)),
				Epoch:        uint64(r.Intn(50)),
				EdgeID:       r.Intn(10),
				BatchID:      uint64(1 + r.Intn(1000)),
				EdgeAddr:     "127.0.0.1:9100",
				ShardVersion: r.Intn(10),
				Delta:        genVec(r, r.Intn(7)),
				Accepted:     r.Intn(20),
				Deferred:     r.Intn(20),
				Rejected:     r.Intn(20),
				FilterState:  genBlob(r),
				FilterFull:   r.Intn(2) == 0,
			},
		}
	}
}

// TestDifferentialClientToServer compares the server-side decodings of
// the two codecs frame by frame (hello, heartbeat, update).
func TestDifferentialClientToServer(t *testing.T) {
	r := randx.New(1)
	// Arena dimension 4 sits inside the generator's 1..6 range, so some
	// trials exercise the arena-recycled delta path and some the
	// cold-allocation mismatch path.
	srv := &Server{arena: fl.NewArena(4)}
	for i := 0; i < diffTrials; i++ {
		msg := genClientMsg(r)

		bw, br := binPair(0)
		if err := bw.writeClientMsg(msg); err != nil {
			t.Fatalf("trial %d: binary write: %v", i, err)
		}
		wire := &binServerWire{bin: br, srv: srv}
		got, err := wire.readMsg()
		if err != nil {
			t.Fatalf("trial %d: binary read: %v", i, err)
		}

		var gbuf bytes.Buffer
		gw := newGobServerWire(&gbuf, &gbuf, 0)
		if err := gob.NewEncoder(&gbuf).Encode(msg); err != nil {
			t.Fatalf("trial %d: gob write: %v", i, err)
		}
		want, err := gw.readMsg()
		if err != nil {
			t.Fatalf("trial %d: gob read: %v", i, err)
		}

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: codecs disagree on %+v:\n binary: %+v\n    gob: %+v", i, msg, got, want)
		}
	}
}

// TestDifferentialServerToClient compares the client-side decodings.
func TestDifferentialServerToClient(t *testing.T) {
	r := randx.New(2)
	for i := 0; i < diffTrials; i++ {
		msg := genServerMsg(r)

		bw, br := binPair(0)
		if err := bw.writeServerMsg(msg); err != nil {
			t.Fatalf("trial %d: binary write: %v", i, err)
		}
		var got ServerMsg
		if _, err := br.readServerMsg(&got, nil); err != nil {
			t.Fatalf("trial %d: binary read: %v", i, err)
		}

		var want ServerMsg
		gobRT(t, msg, &want)

		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("trial %d: codecs disagree on %+v:\n binary: %+v\n    gob: %+v", i, msg, &got, &want)
		}
	}
}

// TestDifferentialEdgeToRoot compares the root-side decodings.
func TestDifferentialEdgeToRoot(t *testing.T) {
	r := randx.New(3)
	for i := 0; i < diffTrials; i++ {
		msg := genEdgeMsg(r)

		bw, br := binPair(0)
		if err := bw.writeEdgeMsg(msg); err != nil {
			t.Fatalf("trial %d: binary write: %v", i, err)
		}
		got, err := br.readEdgeMsg()
		if err != nil {
			t.Fatalf("trial %d: binary read: %v", i, err)
		}

		want := new(EdgeMsg)
		gobRT(t, msg, want)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: codecs disagree on %+v:\n binary: %+v\n    gob: %+v", i, msg, got, want)
		}
	}
}

// TestDifferentialRootToEdge compares the edge-side decodings.
func TestDifferentialRootToEdge(t *testing.T) {
	r := randx.New(4)
	for i := 0; i < diffTrials; i++ {
		msg := genRootMsg(r)

		bw, br := binPair(0)
		if err := bw.writeRootMsg(msg); err != nil {
			t.Fatalf("trial %d: binary write: %v", i, err)
		}
		got, err := br.readRootMsg()
		if err != nil {
			t.Fatalf("trial %d: binary read: %v", i, err)
		}

		want := new(RootMsg)
		gobRT(t, msg, want)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: codecs disagree on %+v:\n binary: %+v\n    gob: %+v", i, msg, got, want)
		}
	}
}

// TestDifferentialStandbyToPrimary compares the primary-side decodings.
func TestDifferentialStandbyToPrimary(t *testing.T) {
	r := randx.New(5)
	for i := 0; i < diffTrials; i++ {
		msg := genReplicaMsg(r)

		bw, br := binPair(0)
		if err := bw.writeReplicaMsg(msg); err != nil {
			t.Fatalf("trial %d: binary write: %v", i, err)
		}
		got, err := br.readReplicaMsg()
		if err != nil {
			t.Fatalf("trial %d: binary read: %v", i, err)
		}

		want := new(ReplicaMsg)
		gobRT(t, msg, want)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: codecs disagree on %+v:\n binary: %+v\n    gob: %+v", i, msg, got, want)
		}
	}
}

// TestDifferentialPrimaryToStandby compares the standby-side decodings.
func TestDifferentialPrimaryToStandby(t *testing.T) {
	r := randx.New(6)
	for i := 0; i < diffTrials; i++ {
		msg := genPrimaryMsg(r)

		bw, br := binPair(0)
		if err := bw.writePrimaryMsg(msg); err != nil {
			t.Fatalf("trial %d: binary write: %v", i, err)
		}
		got, err := br.readPrimaryMsg()
		if err != nil {
			t.Fatalf("trial %d: binary read: %v", i, err)
		}

		want := new(PrimaryMsg)
		gobRT(t, msg, want)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: codecs disagree on %+v:\n binary: %+v\n    gob: %+v", i, msg, got, want)
		}
	}
}

// slabBitPatterns are the float64 bit patterns every slab-carrying frame
// must deliver untouched.
var slabBitPatterns = []uint64{
	math.Float64bits(math.NaN()),
	0x7ff8dead_beeff001, // arena debug poison
	0x7ff00000_00000000, // +Inf
	0xfff00000_00000000, // -Inf
	0x80000000_00000000, // -0
	0x00000000_00000001, // smallest subnormal
	math.Float64bits(math.MaxFloat64),
}

// bitPatternSlab returns slabBitPatterns as a float64 slab.
func bitPatternSlab() []float64 {
	slab := make([]float64, len(slabBitPatterns))
	for i, bits := range slabBitPatterns {
		slab[i] = math.Float64frombits(bits)
	}
	return slab
}

// TestF64sIntoFiniteScreen: the slab decoder reports a NaN or an Inf at
// any position, in the four-wide body and in the tail, and passes every
// finite pattern (signed zero, subnormal, MaxFloat64), still copying each
// value bit-exactly.
func TestF64sIntoFiniteScreen(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			for _, bits := range slabBitPatterns {
				want := make([]float64, n)
				for i := range want {
					want[i] = float64(i) - 3.5
				}
				want[pos] = math.Float64frombits(bits)
				payload := make([]byte, 8*n)
				for i, x := range want {
					binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(x))
				}
				cur := binCursor{b: payload}
				got := make([]float64, n)
				finite := cur.f64sInto(got)
				if wantFinite := !math.IsNaN(want[pos]) && !math.IsInf(want[pos], 0); finite != wantFinite {
					t.Fatalf("n=%d, %016x at %d: finite = %v, want %v", n, bits, pos, finite, wantFinite)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d, %016x at %d: slab[%d] = %016x", n, bits, pos, i, math.Float64bits(got[i]))
					}
				}
			}
		}
	}
}

// TestBinarySlabBitPatterns proves raw float64 slabs survive bit-exactly
// through every raw frame kind that carries one: NaN payloads (which a
// poisoned client could craft), infinities and signed zeros must arrive
// with the very bits that were sent, so the filter judges exactly what
// the client produced. reflect.DeepEqual cannot check this (NaN != NaN),
// hence the dedicated bit-level comparison.
func TestBinarySlabBitPatterns(t *testing.T) {
	patterns := slabBitPatterns
	slab := bitPatternSlab()
	checkBits := func(t *testing.T, got []float64) {
		t.Helper()
		if len(got) != len(patterns) {
			t.Fatalf("slab length %d, want %d", len(got), len(patterns))
		}
		for i, x := range got {
			if math.Float64bits(x) != patterns[i] {
				t.Fatalf("slab[%d] = %016x, want %016x", i, math.Float64bits(x), patterns[i])
			}
		}
	}

	t.Run("update", func(t *testing.T) {
		bw, br := binPair(0)
		msg := &ClientMsg{Update: &UpdateMsg{BaseVersion: 7, Delta: slab}}
		if err := bw.writeClientMsg(msg); err != nil {
			t.Fatal(err)
		}
		wire := &binServerWire{bin: br, srv: &Server{arena: fl.NewArena(len(slab))}}
		frame, err := wire.readMsg()
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, frame.delta)
	})

	t.Run("task", func(t *testing.T) {
		bw, br := binPair(0)
		msg := &ServerMsg{Task: &Task{Version: 3, Params: slab}}
		if err := bw.writeServerMsg(msg); err != nil {
			t.Fatal(err)
		}
		var got ServerMsg
		if _, err := br.readServerMsg(&got, nil); err != nil {
			t.Fatal(err)
		}
		checkBits(t, got.Task.Params)
	})

	t.Run("edge-batch", func(t *testing.T) {
		bw, br := binPair(0)
		msg := &EdgeMsg{Batch: &BatchMsg{BatchID: 1, Updates: []*fl.Update{
			{ClientID: 1, NumSamples: 1, Delta: slab},
		}}}
		if err := bw.writeEdgeMsg(msg); err != nil {
			t.Fatal(err)
		}
		got, err := br.readEdgeMsg()
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, got.Batch.Updates[0].Delta)
	})

	t.Run("root-reply", func(t *testing.T) {
		bw, br := binPair(0)
		msg := &RootMsg{Ack: 1, Task: &Task{Version: 2, Params: slab}}
		if err := bw.writeRootMsg(msg); err != nil {
			t.Fatal(err)
		}
		got, err := br.readRootMsg()
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, got.Task.Params)
	})

	t.Run("repl-record", func(t *testing.T) {
		bw, br := binPair(0)
		msg := &PrimaryMsg{Record: &ReplRecord{Seq: 1, Delta: slab}}
		if err := bw.writePrimaryMsg(msg); err != nil {
			t.Fatal(err)
		}
		got, err := br.readPrimaryMsg()
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, got.Record.Delta)
	})
}

// captureConn is the server's end of a connection nobody reads: it keeps
// what the reply path writes and counts the Write calls, each of which is
// one I/O operation to a FaultConn schedule. Any other net.Conn method the
// reply path were to call panics on the nil embedded Conn.
type captureConn struct {
	net.Conn
	buf    bytes.Buffer
	writes int
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

// replyServer builds a server that only ever replies: its goal is out of
// reach, so the published model is what the test put there.
func replyServer(tb testing.TB, params []float64) *Server {
	tb.Helper()
	s, err := NewServer(ServerConfig{
		InitialParams:   params,
		AggregationGoal: 1 << 20,
		Rounds:          1 << 20,
		WriteTimeout:    time.Second,
	}, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPublishedFrameIsTheWireFormat holds the frame a server publishes
// once per model state to the frame the per-connection encoder writes for
// the same task, byte for byte, for random versions and slabs, the empty
// slab and the non-finite bit patterns — and the replies that cannot use
// it (NACK + task, shard push) to exactly one envelope in one Write.
func TestPublishedFrameIsTheWireFormat(t *testing.T) {
	r := randx.New(7)
	type pin struct {
		version int
		params  []float64
	}
	pins := []pin{{0, nil}, {1 << 40, nil}, {3, bitPatternSlab()}}
	for i := 0; i < diffTrials; i++ {
		pins = append(pins, pin{r.Intn(1 << 30), genVec(r, r.Intn(40))})
	}

	for i, p := range pins {
		// The publish helper itself, on a bare server: NewServer refuses an
		// empty model, and dim 0 is a case the frame must still get right.
		s := &Server{version: p.version, global: p.params}
		s.publishLocked()
		pub := s.task.Load()

		var want bytes.Buffer
		msg := &ServerMsg{Task: &Task{Version: p.version, Params: p.params}}
		if err := newBinConn(&want, 0, false).writeServerMsg(msg); err != nil {
			t.Fatalf("pin %d: per-connection encode: %v", i, err)
		}
		if !bytes.Equal(pub.frame, want.Bytes()) {
			t.Fatalf("pin %d (version %d, dim %d): published frame differs from writeServerMsg's bytes", i, p.version, len(p.params))
		}

		// The frame goes out in one Write and leaves the connection's own
		// write scratch alone.
		conn := &captureConn{}
		wire := &binServerWire{bin: newBinConn(conn, 0, false), srv: s}
		if err := wire.writeTask(pub); err != nil {
			t.Fatalf("pin %d: writeTask: %v", i, err)
		}
		if conn.writes != 1 || !bytes.Equal(conn.buf.Bytes(), want.Bytes()) || cap(wire.bin.wbuf) != 0 {
			t.Fatalf("pin %d: writeTask made %d writes of %d bytes (want 1 of %d) and grew the write scratch to %d",
				i, conn.writes, conn.buf.Len(), want.Len(), cap(wire.bin.wbuf))
		}

		var got ServerMsg
		if _, err := newBinConn(&conn.buf, 0, false).readServerMsg(&got, nil); err != nil {
			t.Fatalf("pin %d: decode of the published frame: %v", i, err)
		}
		if got.Task == nil || got.Task.Version != p.version || !sameSlabBits(got.Task.Params, p.params) {
			t.Fatalf("pin %d: published frame decodes to %+v, want version %d and the same %d floats", i, got.Task, p.version, len(p.params))
		}
		got.Task.Params = nil
		if want := (ServerMsg{Task: &Task{Version: p.version}}); !reflect.DeepEqual(got, want) {
			t.Fatalf("pin %d: published frame decodes to %+v beyond its params, want %+v", i, got, want)
		}
		if conn.buf.Len() != 0 {
			t.Fatalf("pin %d: %d bytes follow the published frame", i, conn.buf.Len())
		}
	}
}

// sameSlabBits compares two slabs bit for bit (reflect.DeepEqual cannot:
// NaN != NaN), treating nil and empty alike as the wire does.
func sameSlabBits(a, b []float64) bool {
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

// TestTaskRepliesAreOneEnvelope drives the server's reply path itself in
// both codecs: the plain task, the NACK + task and the shard push each
// reach the client as exactly one envelope carrying the published model —
// and, on a binary connection, in exactly one Write.
func TestTaskRepliesAreOneEnvelope(t *testing.T) {
	params := genVec(randx.New(8), 33)
	shards := []string{"127.0.0.1:9001", "127.0.0.1:9002"}
	for _, codec := range []Codec{CodecBinary, CodecGob} {
		s := replyServer(t, params)
		s.SetShardAddrs(shards)
		conn := &captureConn{}
		wire := replyWire(s, conn, codec)
		var recv func() *ServerMsg
		if codec == CodecBinary {
			br := newBinConn(&conn.buf, 0, false)
			recv = func() *ServerMsg {
				msg := new(ServerMsg)
				if _, err := br.readServerMsg(msg, nil); err != nil {
					t.Fatalf("%v: decode: %v", codec, err)
				}
				return msg
			}
		} else {
			dec := gob.NewDecoder(&conn.buf)
			recv = func() *ServerMsg {
				msg := new(ServerMsg)
				if err := dec.Decode(msg); err != nil {
					t.Fatalf("%v: decode: %v", codec, err)
				}
				return msg
			}
		}
		task := &Task{Version: 0, Params: params}
		sentShard := -1
		steps := []struct {
			name  string
			nack  NackCode
			retry time.Duration
			want  *ServerMsg
		}{
			// The first reply of a connection carries the shard list.
			{"shard push", 0, 0, &ServerMsg{Task: task, Shards: shards, ShardVersion: 1}},
			{"plain task", 0, 0, &ServerMsg{Task: task}},
			{"nack + task", NackRateLimited, 250 * time.Millisecond, &ServerMsg{Task: task, Nack: NackRateLimited, RetryAfter: 250 * time.Millisecond}},
			{"plain task again", 0, 0, &ServerMsg{Task: task}},
		}
		for _, step := range steps {
			conn.writes = 0
			if !s.sendTaskNack(conn, wire, step.nack, step.retry, &sentShard) {
				t.Fatalf("%v %s: reply path gave the connection up", codec, step.name)
			}
			if codec == CodecBinary && conn.writes != 1 {
				t.Errorf("%v %s: %d writes, want 1", codec, step.name, conn.writes)
			}
			if got := recv(); !reflect.DeepEqual(got, step.want) {
				t.Errorf("%v %s: client decoded %+v, want %+v", codec, step.name, got, step.want)
			}
			if conn.buf.Len() != 0 {
				t.Errorf("%v %s: %d bytes beyond the one envelope", codec, step.name, conn.buf.Len())
			}
		}
	}
}
