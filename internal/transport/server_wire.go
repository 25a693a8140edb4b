package transport

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// clientFrame is one decoded client->server message, codec-independent.
// The delta slice is owned by the receiving handler (the wire never
// reuses it): either a fresh gob allocation or arena memory handed over
// through receiveUpdate's ownership-transfer contract.
type clientFrame struct {
	hello     *Hello
	heartbeat bool
	// hasUpdate distinguishes "update present" from an empty envelope;
	// baseVersion, delta and finite are only meaningful when it is set.
	hasUpdate   bool
	baseVersion int
	delta       []float64
	// finite reports that delta holds no NaN or Inf; the wire screens
	// while it decodes and admission drops an update that fails.
	finite bool
}

// gobFrame converts a decoded gob client message, screening the update's
// delta with one AllFinite pass.
func gobFrame(msg *ClientMsg) clientFrame {
	frame := clientFrame{hello: msg.Hello, heartbeat: msg.Heartbeat}
	if msg.Update != nil {
		frame.hasUpdate = true
		frame.baseVersion = msg.Update.BaseVersion
		frame.delta = msg.Update.Delta
		frame.finite = vecmath.AllFinite(msg.Update.Delta)
	}
	return frame
}

// serverWire abstracts the server side of one client connection over the
// negotiated codec. Read deadlines are armed by the caller (the handler
// owns the net.Conn); the wire owns framing, decoding and the oversize
// budget.
type serverWire interface {
	// readMsg blocks for the next client message. The returned frame's
	// delta is owned by the caller.
	readMsg() (clientFrame, error)
	// writeMsg transmits one reply in the connection's codec.
	writeMsg(msg *ServerMsg) error
	// writeTask transmits a plain task reply (no NACK, no shard push) from
	// the published model, which it only reads.
	writeTask(pub *publishedTask) error
	// oversize reports whether a read failed because the peer exceeded
	// the byte budget (the connection is condemned).
	oversize() bool
	// codec identifies the negotiated codec, for cross-checking the
	// client's declarative Hello.Codec.
	codec() Codec
}

// gobServerWire is the legacy reflective gob stream.
type gobServerWire struct {
	lim *limitReader
	dec *gob.Decoder
	enc *gob.Encoder
}

func newGobServerWire(r io.Reader, w io.Writer, max int64) *gobServerWire {
	lim := newLimitReader(r, max)
	return &gobServerWire{lim: lim, dec: gob.NewDecoder(lim), enc: gob.NewEncoder(w)}
}

// readMsg decodes into a fresh ClientMsg every time: gob reuses slice
// backing arrays when decoding into a dirty struct, and an update's delta
// must be exclusively owned by the admission pipeline.
func (w *gobServerWire) readMsg() (clientFrame, error) {
	w.lim.reset()
	var msg ClientMsg
	//lint:ignore netdeadline forwarding wrapper: Server.handle arms the read deadline before every readMsg
	if err := w.dec.Decode(&msg); err != nil {
		return clientFrame{}, err
	}
	return gobFrame(&msg), nil
}

func (w *gobServerWire) writeMsg(msg *ServerMsg) error {
	//lint:ignore netdeadline forwarding wrapper: Server.send arms the write deadline before every writeMsg
	return w.enc.Encode(msg)
}

// writeTask encodes per connection: a gob stream carries its type
// definitions and encoder state, so no two connections share bytes.
func (w *gobServerWire) writeTask(pub *publishedTask) error {
	return w.writeMsg(&ServerMsg{Task: &pub.task})
}
func (w *gobServerWire) oversize() bool { return w.lim.tripped() }
func (w *gobServerWire) codec() Codec   { return CodecGob }

// binServerWire is the length-prefixed binary envelope. Update deltas are
// decoded into arena vectors (when the dimension matches the deployment)
// and ownership transfers through receiveUpdate into the buffer.
type binServerWire struct {
	bin *binConn
	srv *Server
}

func (w *binServerWire) readMsg() (clientFrame, error) {
	kind, payload, err := w.bin.readFrame()
	if err != nil {
		return clientFrame{}, err
	}
	switch kind {
	case frameGob:
		var msg ClientMsg
		if err := gobFromFrame(payload, &msg); err != nil {
			return clientFrame{}, err
		}
		return gobFrame(&msg), nil
	case frameHeartbeat:
		if len(payload) != 0 {
			return clientFrame{}, badFrame(kind, "trailing bytes")
		}
		return clientFrame{heartbeat: true}, nil
	case frameUpdate:
		cur := binCursor{b: payload}
		base := cur.i64()
		dim := cur.restDim()
		if cur.bad {
			return clientFrame{}, badFrame(kind, "short or misaligned payload")
		}
		delta := w.srv.getDeltaVec(dim)
		finite := cur.f64sInto(delta)
		if err := cur.done(kind); err != nil {
			w.srv.arena.PutVec(delta)
			return clientFrame{}, err
		}
		return clientFrame{hasUpdate: true, baseVersion: base, delta: delta, finite: finite}, nil
	default:
		return clientFrame{}, badFrame(kind, "unknown kind in client->server direction")
	}
}

func (w *binServerWire) writeMsg(msg *ServerMsg) error { return w.bin.writeServerMsg(msg) }

// writeTask is one Write of the frame encoded at publish time; the
// connection's own write scratch is not touched, so it never grows to
// model size.
func (w *binServerWire) writeTask(pub *publishedTask) error { return w.bin.writeFrame(pub.frame) }
func (w *binServerWire) oversize() bool                     { return w.bin.tripped() }
func (w *binServerWire) codec() Codec                       { return CodecBinary }

// getDeltaVec returns an update-delta buffer of length n: recycled arena
// memory when n matches the deployment's model dimension, a cold fresh
// slice otherwise (the dimension-mismatch path rejects it right after).
//
//afl:pooled
func (s *Server) getDeltaVec(n int) []float64 {
	if n == s.arena.Dim() {
		return s.arena.GetVec()
	}
	return make([]float64, n)
}

// sniffWire classifies a fresh client connection by its first byte and
// builds the matching wire. Gob streams never begin with 0x00 (every gob
// message opens with a non-zero varint byte count), so that byte — the
// start of the binary preamble — is an unambiguous codec signal. The
// sniffed bytes of a gob stream are re-prepended, keeping the legacy
// byte stream untouched.
func (s *Server) sniffWire(conn net.Conn) (serverWire, error) {
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return nil, err
	}
	if first[0] != binaryPreamble[0] {
		r := io.MultiReader(bytes.NewReader(first[:]), conn)
		return newGobServerWire(r, conn, s.cfg.MaxMessageBytes), nil
	}
	var rest [3]byte
	if _, err := io.ReadFull(conn, rest[:]); err != nil {
		return nil, err
	}
	if rest != [3]byte{binaryPreamble[1], binaryPreamble[2], binaryPreamble[3]} {
		return nil, badFrame(0, "bad binary preamble")
	}
	return &binServerWire{bin: newBinConn(conn, s.cfg.MaxMessageBytes, false), srv: s}, nil
}
