package transport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// benchWireEdgeBatch drives one edge batch per iteration through an
// initiator/acceptor UpstreamConn pair over an in-memory pipe — the
// annotated //afl:hotpath wire codec end to end, write and read sides
// both counted in allocs/op.
func benchWireEdgeBatch(b *testing.B, codec Codec) {
	const dim = 256
	edgeConn, rootConn := net.Pipe()
	defer edgeConn.Close()
	defer rootConn.Close()
	edge := NewUpstreamConnCodec(edgeConn, codec, 0, 0, 0)
	root := AcceptUpstreamConn(rootConn, 0, 0, 0)

	msg := &EdgeMsg{Batch: &BatchMsg{
		BatchID: 1,
		Updates: []*fl.Update{{ClientID: 1, Delta: make([]float64, dim), NumSamples: 10}},
	}}
	errc := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(errc)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := root.ReadEdge(); err != nil {
				errc <- err
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Batch.BatchID = uint64(i + 1)
		if err := edge.WriteEdge(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(done)
	edgeConn.Close()
	if err := <-errc; err != nil && b.N > 0 {
		// The reader exits with a closed-pipe error once the bench ends;
		// anything before that would have stalled the writer anyway.
		_ = err
	}
}

// BenchmarkHotWireEdgeBatch measures the binary frame envelope — the
// serving codec described in DESIGN.md §14 — and is gated against the gob-era
// BENCH_8 baseline by cmd/benchgate. Run via `make bench-hot`.
func BenchmarkHotWireEdgeBatch(b *testing.B) {
	benchWireEdgeBatch(b, CodecBinary)
}

// BenchmarkHotWireEdgeBatchGob measures the legacy gob stream over the
// same pipe, keeping the rollback codec's cost visible next to the
// binary numbers.
func BenchmarkHotWireEdgeBatchGob(b *testing.B) {
	benchWireEdgeBatch(b, CodecGob)
}

// discardConn is the server's end of a connection whose peer reads
// everything at once: the reply path's own cost with no socket under it.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// replyWire builds the server side of one connection in the given codec
// over conn, past the Hello.
func replyWire(s *Server, conn net.Conn, codec Codec) serverWire {
	if codec == CodecBinary {
		return &binServerWire{bin: newBinConn(conn, 0, false), srv: s}
	}
	return newGobServerWire(conn, conn, 0)
}

// BenchmarkHotTaskReply measures the reply to an accepted update — the
// current model, once per update per client — at the toy dimension and at
// LeNet-5 size. The binary rows are the published frame going out as it
// stands and are gated at 0 allocs/op by `make bench-hot`; the gob rows
// re-encode per connection (a gob stream cannot share bytes) and show
// what that costs.
func BenchmarkHotTaskReply(b *testing.B) {
	for _, codec := range []Codec{CodecBinary, CodecGob} {
		for _, dim := range []int{256, 61706} {
			b.Run(fmt.Sprintf("%v/d%d", codec, dim), func(b *testing.B) {
				s := replyServer(b, make([]float64, dim))
				var conn net.Conn = discardConn{}
				wire := replyWire(s, conn, codec)
				sentShard := -1
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !s.sendTask(conn, wire, &sentShard) {
						b.Fatal("reply path gave the connection up")
					}
				}
			})
		}
	}
}

// TestPlainTaskReplyAllocatesNothing is the tier-1 form of that gate: a
// plain task reply on a binary connection allocates no object — so no
// byte — per reply, at any dimension: no model clone, no envelope, no
// growth of the connection's write scratch.
func TestPlainTaskReplyAllocatesNothing(t *testing.T) {
	for _, dim := range []int{256, 61706} {
		s := replyServer(t, make([]float64, dim))
		var conn net.Conn = discardConn{}
		wire := replyWire(s, conn, CodecBinary)
		sentShard := -1
		allocs := testing.AllocsPerRun(200, func() {
			if !s.sendTask(conn, wire, &sentShard) {
				t.Fatal("reply path gave the connection up")
			}
		})
		if allocs != 0 {
			t.Errorf("dim %d: %v allocations per plain binary task reply, want 0", dim, allocs)
		}
	}
}

// replayReader yields the same byte stream over and over, a connection
// whose peer sends one frame forever.
type replayReader struct {
	stream []byte
	off    int
}

func (r *replayReader) Read(p []byte) (int, error) {
	n := copy(p, r.stream[r.off:])
	r.off = (r.off + n) % len(r.stream)
	return n, nil
}

// BenchmarkHotUpdateDecode measures the server's read of one binary
// update frame, header and slab, into an arena vector: the per-update
// decode of the served path with no socket under it. `make bench-hot`
// gates it at 0 allocs/op. The vectors go back to the arena 64 at a time
// with the timer stopped, because PutVec's one allocation is the
// buffer's cost (BenchmarkHotBufferAdd counts it), not the decoder's.
func BenchmarkHotUpdateDecode(b *testing.B) {
	for _, dim := range []int{256, 61706} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			s := replyServer(b, make([]float64, dim))
			delta := make([]float64, dim)
			for i := range delta {
				delta[i] = float64(i) / 7
			}
			stream := binSeed(b, func(c *binConn) error {
				return c.writeClientMsg(&ClientMsg{Update: &UpdateMsg{BaseVersion: 3, Delta: delta}})
			})
			wire := &binServerWire{bin: binReader(&replayReader{stream: stream}, 0), srv: s}
			b.SetBytes(int64(8 * dim))
			b.ReportAllocs()
			var held [64][]float64
			recycle := func(n int) {
				for _, v := range held[:n] {
					s.arena.PutVec(v)
				}
			}
			decode := func() []float64 {
				frame, err := wire.readMsg()
				if err != nil || !frame.hasUpdate || len(frame.delta) != dim {
					b.Fatalf("decode: %v", err)
				}
				return frame.delta
			}
			for i := range held { // fill the arena
				held[i] = decode()
			}
			recycle(len(held))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				held[i%len(held)] = decode()
				if i%len(held) == len(held)-1 {
					b.StopTimer()
					recycle(len(held))
					b.StartTimer()
				}
			}
			b.StopTimer()
			recycle(b.N % len(held))
		})
	}
}
