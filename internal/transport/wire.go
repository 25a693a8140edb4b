package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// This file implements the binary wire codec of ROADMAP item 2: a
// length-prefixed frame envelope carrying raw little-endian float64
// slabs, replacing gob's reflective encoding on every per-update hot
// path while keeping gob as the fuzz-hardened fallback and the legacy
// protocol.
//
// Negotiation is per connection and initiator-driven: a binary-codec
// initiator sends a 4-byte preamble before its first frame, and the
// accepting side sniffs the first byte of the stream to pick the
// connection's codec. The preamble starts with 0x00, a byte no gob
// stream can begin with (gob frames every message with a non-zero
// varint byte count, and a zero-length message is never emitted), so
// legacy gob connections are recognized without consuming anything a
// gob decoder needs: the sniffed byte is re-prepended and the gob byte
// stream stays byte-for-byte identical to previous releases — which is
// what keeps the deterministic fault-injection schedules (they count
// I/O operations) aligned. The client additionally declares its codec
// in Hello.Codec, so the negotiation is also visible at the protocol
// level and the server can cross-check framing against declaration.
//
// After the preamble the connection is a sequence of frames:
//
//	kind (1 byte) | payload length (uint32 LE) | payload
//
// Hot message shapes get dedicated raw kinds whose payloads are fixed
// scalar fields plus float64 slabs (encoded bit-exactly via
// math.Float64bits, so NaN payloads and signed zeros survive). Every
// other message — Hellos, shard pushes, snapshots, votes, Done/Goodbye
// — travels as kind 0: a self-contained gob encoding of the envelope
// struct inside one frame. That keeps total message coverage (and the
// gob fallback exercised) while the steady-state path never touches
// reflection.
//
// The payload length is checked against the connection's byte budget
// BEFORE any allocation, mirroring the limitReader guard of the gob
// path: a hostile 4 GiB length prefix trips the oversize counter and
// kills the connection without allocating.

// Codec identifies a negotiated wire codec.
type Codec int

const (
	// CodecGob is the legacy reflective gob stream (the zero value, so
	// unconfigured deployments keep their exact wire behavior).
	CodecGob Codec = iota
	// CodecBinary is the length-prefixed binary frame envelope.
	CodecBinary
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecGob:
		return "gob"
	case CodecBinary:
		return "binary"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// ParseCodec maps a -codec flag value to a Codec. The empty string
// selects gob, matching the zero value.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "gob":
		return CodecGob, nil
	case "binary":
		return CodecBinary, nil
	default:
		return 0, fmt.Errorf("transport: unknown codec %q (want gob or binary)", s)
	}
}

// binaryPreamble is the connection preamble of a binary-codec initiator:
// an impossible-for-gob first byte, a protocol tag, and a codec version.
var binaryPreamble = [4]byte{0x00, 'A', 'F', 1}

// ErrBadFrame reports a structurally invalid binary frame: an unknown
// kind, a payload that does not parse, or trailing garbage.
var ErrBadFrame = errors.New("transport: malformed binary frame")

// frameHeaderLen is kind byte plus uint32 payload length.
const frameHeaderLen = 5

// Frame kinds. frameGob is the universal fallback; the rest are raw
// encodings of the hot message shapes, one namespace across all four
// protocols (each Read* method accepts only the kinds of its direction).
const (
	frameGob           byte = 0x00
	frameUpdate        byte = 0x01
	frameHeartbeat     byte = 0x02
	frameTask          byte = 0x03
	framePong          byte = 0x04
	frameEdgeBatch     byte = 0x05
	frameEdgeHeartbeat byte = 0x06
	frameRootReply     byte = 0x07
	frameReplAck       byte = 0x08
	frameReplRecord    byte = 0x09
	frameReplHeartbeat byte = 0x0A
)

// binConn is one side's framing state on a binary-codec connection: a
// grow-only write scratch, a grow-only read buffer, and the oversize
// trip flag. Not safe for concurrent use; the transport's single-reader
// / single-writer discipline applies, with reads and writes
// independently owned (the two buffers never alias).
type binConn struct {
	r   io.Reader
	w   io.Writer
	max int64
	// sendPreamble arms the one-shot preamble write of an initiator.
	sendPreamble bool
	trip         bool
	hdr          [frameHeaderLen]byte
	rbuf         []byte
	wbuf         []byte
}

// newBinConn builds framing state over a connection. max caps a frame
// payload (0 disables, like the gob path's limitReader). sendPreamble
// selects the initiator role: the 4-byte preamble goes out before the
// first frame.
func newBinConn(rw io.ReadWriter, max int64, sendPreamble bool) *binConn {
	return &binConn{r: rw, w: rw, max: max, sendPreamble: sendPreamble}
}

// begin returns the write scratch positioned after the frame header.
func (c *binConn) begin() []byte {
	if cap(c.wbuf) < frameHeaderLen {
		c.wbuf = make([]byte, frameHeaderLen, 512)
	}
	return c.wbuf[:frameHeaderLen]
}

// stampFrame fills in the header of a frame laid out as frameHeaderLen
// reserved bytes followed by the payload.
func stampFrame(kind byte, b []byte) {
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:frameHeaderLen], uint32(len(b)-frameHeaderLen))
}

// flush stamps the header and writes the frame. b must have come from
// begin() + appends.
func (c *binConn) flush(kind byte, b []byte) error {
	c.wbuf = b[:0]
	stampFrame(kind, b)
	return c.writeFrame(b)
}

// writeFrame writes one complete, already stamped frame in a single
// Write (preceded by the one-shot preamble on an initiator). The frame is
// only read, so one published frame may be written to many connections.
func (c *binConn) writeFrame(frame []byte) error {
	if c.sendPreamble {
		c.sendPreamble = false
		if _, err := c.w.Write(binaryPreamble[:]); err != nil {
			return err
		}
	}
	_, err := c.w.Write(frame)
	return err
}

// flushGob writes v as a self-contained gob payload in a frameGob frame.
func (c *binConn) flushGob(v any) error {
	var buf bytes.Buffer
	//lint:ignore netdeadline encodes to an in-memory buffer; the conn write below goes through flush, whose caller armed the deadline
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	return c.flush(frameGob, append(c.begin(), buf.Bytes()...))
}

// readFrame reads one frame header and payload. The payload slice is the
// connection's reusable buffer: it is valid until the next readFrame,
// and decoded messages must copy what they keep. The byte budget is
// enforced before the payload buffer is (re)allocated.
func (c *binConn) readFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	kind := c.hdr[0]
	n := int64(binary.LittleEndian.Uint32(c.hdr[1:frameHeaderLen]))
	if c.max > 0 && n > c.max {
		c.trip = true
		return 0, nil, fmt.Errorf("binary frame of %d bytes: %w", n, ErrMessageTooLarge)
	}
	if int64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return 0, nil, err
	}
	return kind, buf, nil
}

// tripped reports whether a frame exceeded the byte budget.
func (c *binConn) tripped() bool { return c.trip }

// badFrame builds a typed decode error.
func badFrame(kind byte, what string) error {
	return fmt.Errorf("kind 0x%02x: %s: %w", kind, what, ErrBadFrame)
}

// --- payload building ---

func appendU32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

// appendI64 writes an int as two's-complement little-endian 64-bit.
func appendI64(b []byte, v int) []byte {
	return appendU64(b, uint64(int64(v)))
}

// appendF64s writes a float64 slab bit-exactly. b grows once; the slab is
// then written four floats at a time through a sliding window, whose
// length test covers the bounds checks of all four stores.
func appendF64s(b []byte, v []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(v))[:n+8*len(v)]
	p := b[n:]
	for len(v) >= 4 && len(p) >= 32 {
		binary.LittleEndian.PutUint64(p[0:8], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(p[8:16], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(p[16:24], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(p[24:32], math.Float64bits(v[3]))
		v, p = v[4:], p[32:]
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(x))
	}
	return b
}

// appendBlob writes a uint32-length-prefixed byte string (nil and empty
// both encode as length 0; the decoder yields nil, matching gob's
// empty-is-absent round-trip behavior).
func appendBlob(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// --- payload parsing ---

// binCursor walks a frame payload. The first structural violation sets
// bad and every later read yields zero values, so decoders can parse
// straight-line and check once at the end.
type binCursor struct {
	b   []byte
	off int
	bad bool
}

// need returns the next n payload bytes, or nil (setting bad) when the
// payload is too short.
func (c *binCursor) need(n int) []byte {
	if c.bad || n < 0 || len(c.b)-c.off < n {
		c.bad = true
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

func (c *binCursor) u8() byte {
	p := c.need(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (c *binCursor) u32() uint32 {
	p := c.need(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (c *binCursor) u64() uint64 {
	p := c.need(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (c *binCursor) i64() int {
	return int(int64(c.u64()))
}

// blob copies out a length-prefixed byte string (the frame buffer is
// reused, so retained bytes must not alias it). Length 0 yields nil.
func (c *binCursor) blob() []byte {
	n := int(c.u32())
	p := c.need(n)
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func (c *binCursor) str() string {
	n := int(c.u32())
	return string(c.need(n))
}

// f64sInto fills dst bit-exactly from the payload, four floats per step
// through a sliding window like appendF64s.
func (c *binCursor) f64sInto(dst []float64) {
	p := c.need(8 * len(dst))
	if p == nil {
		return
	}
	for len(dst) >= 4 && len(p) >= 32 {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(p[0:8]))
		dst[1] = math.Float64frombits(binary.LittleEndian.Uint64(p[8:16]))
		dst[2] = math.Float64frombits(binary.LittleEndian.Uint64(p[16:24]))
		dst[3] = math.Float64frombits(binary.LittleEndian.Uint64(p[24:32]))
		dst, p = dst[4:], p[32:]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// restDim interprets every remaining payload byte as a float64 slab and
// returns its element count (bad on a non-multiple of 8).
func (c *binCursor) restDim() int {
	rem := len(c.b) - c.off
	if rem%8 != 0 {
		c.bad = true
		return 0
	}
	return rem / 8
}

// done reports a structural violation or trailing garbage.
func (c *binCursor) done(kind byte) error {
	if c.bad {
		return badFrame(kind, "short or misaligned payload")
	}
	if c.off != len(c.b) {
		return badFrame(kind, "trailing bytes")
	}
	return nil
}

// gobFromFrame decodes one self-contained gob payload into v.
func gobFromFrame(payload []byte, v any) error {
	//lint:ignore netdeadline decodes from an already-read in-memory payload; it cannot block on the network
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("gob payload: %s: %w", err, ErrBadFrame)
	}
	return nil
}

// --- client protocol (client <-> server) ---

// writeClientMsg encodes one client->server envelope: raw frames for the
// hot shapes (update, heartbeat), gob-in-frame for Hello and anything
// unusual.
//
//afl:hotpath
func (c *binConn) writeClientMsg(msg *ClientMsg) error {
	switch {
	case msg.Update != nil && msg.Hello == nil && !msg.Heartbeat:
		b := c.begin()
		b = appendI64(b, msg.Update.BaseVersion)
		b = appendF64s(b, msg.Update.Delta)
		return c.flush(frameUpdate, b)
	case msg.Heartbeat && msg.Hello == nil && msg.Update == nil:
		return c.flush(frameHeartbeat, c.begin())
	default:
		return c.flushGob(msg)
	}
}

// writeServerMsg encodes one server->client envelope: raw frames for
// task(+nack) and pong, gob-in-frame for Done/Goodbye/shard pushes.
//
//afl:hotpath
func (c *binConn) writeServerMsg(msg *ServerMsg) error {
	switch {
	case msg.Task != nil && !msg.Pong && !msg.Done && !msg.Goodbye && msg.Shards == nil && msg.ShardVersion == 0:
		return c.flush(frameTask, appendTaskPayload(c.begin(), msg.Task, msg.Nack, msg.RetryAfter))
	case msg.Pong && msg.Task == nil && msg.Nack == 0 && !msg.Done && !msg.Goodbye && msg.Shards == nil && msg.ShardVersion == 0:
		return c.flush(framePong, c.begin())
	default:
		return c.flushGob(msg)
	}
}

// appendTaskPayload writes a frameTask payload: version, nack, retry-after
// and the parameter slab. It is the one definition of that layout, shared
// by the per-connection encode above and the published frame below.
func appendTaskPayload(b []byte, task *Task, nack NackCode, retryAfter time.Duration) []byte {
	b = appendI64(b, task.Version)
	b = appendI64(b, int(nack))
	b = appendI64(b, int(retryAfter))
	return appendF64s(b, task.Params)
}

// taskFrame builds the complete frame of a plain task reply (no NACK, no
// retry hint): byte for byte what writeServerMsg(&ServerMsg{Task: task})
// puts on the wire, in a buffer of its own.
func taskFrame(task *Task) []byte {
	b := make([]byte, frameHeaderLen, frameHeaderLen+3*8+8*len(task.Params))
	b = appendTaskPayload(b, task, 0, 0)
	stampFrame(frameTask, b)
	return b
}

// readServerMsg decodes the next server->client envelope (client side)
// into msg, reusing params as the task-parameter scratch across calls
// (model.SetParams copies, so the protocol loop never retains it). It
// returns the possibly-grown scratch. The caller transfers ownership of
// params in and receives it back: the decoded Task aliases it until the
// next call, by design.
//
//afl:owned
func (c *binConn) readServerMsg(msg *ServerMsg, params []float64) ([]float64, error) {
	kind, payload, err := c.readFrame()
	if err != nil {
		return params, err
	}
	*msg = ServerMsg{}
	switch kind {
	case frameGob:
		return params, gobFromFrame(payload, msg)
	case framePong:
		if len(payload) != 0 {
			return params, badFrame(kind, "trailing bytes")
		}
		msg.Pong = true
		return params, nil
	case frameTask:
		cur := binCursor{b: payload}
		version := cur.i64()
		nack := cur.i64()
		retry := cur.i64()
		dim := cur.restDim()
		if cap(params) < dim {
			params = make([]float64, dim)
		}
		params = params[:dim]
		cur.f64sInto(params)
		if err := cur.done(kind); err != nil {
			return params, err
		}
		// An empty slab decodes as a nil Params, matching gob; the
		// scratch (possibly non-nil with spare capacity) is kept either
		// way.
		taskParams := params
		if dim == 0 {
			taskParams = nil
		}
		msg.Task = &Task{Version: version, Params: taskParams}
		msg.Nack = NackCode(nack)
		msg.RetryAfter = durationFromI64(retry)
		return params, nil
	default:
		return params, badFrame(kind, "unknown kind in server->client direction")
	}
}

// --- edge <-> root protocol ---

// writeEdgeMsg encodes one edge->root envelope: a raw frame for the
// batch push (the uplink hot path) and the idle heartbeat, gob-in-frame
// for the Hello.
//
//afl:hotpath
func (c *binConn) writeEdgeMsg(msg *EdgeMsg) error {
	switch {
	case msg.Batch != nil && msg.Hello == nil && !msg.Heartbeat:
		b := c.begin()
		b = appendU64(b, msg.Epoch)
		b = appendU64(b, msg.Batch.BatchID)
		b = appendI64(b, msg.Batch.EdgeVersion)
		b = appendBlob(b, msg.Batch.FilterState)
		b = appendU32(b, uint32(len(msg.Batch.Updates)))
		for _, u := range msg.Batch.Updates {
			b = appendI64(b, u.ClientID)
			b = appendI64(b, u.BaseVersion)
			b = appendI64(b, u.Staleness)
			b = appendI64(b, u.NumSamples)
			b = appendU32(b, uint32(len(u.Delta)))
			b = appendF64s(b, u.Delta)
		}
		return c.flush(frameEdgeBatch, b)
	case msg.Heartbeat && msg.Hello == nil && msg.Batch == nil:
		return c.flush(frameEdgeHeartbeat, appendU64(c.begin(), msg.Epoch))
	default:
		return c.flushGob(msg)
	}
}

// minWireUpdate is the smallest raw-encoded update (four scalars plus a
// dimension prefix and an empty slab): the update-count sanity bound
// that keeps a hostile count prefix from allocating ahead of the bytes
// actually on the wire.
const minWireUpdate = 4*8 + 4

// readEdgeMsg decodes the next edge->root envelope (root side). Decoded
// updates are freshly allocated and owned by the caller.
func (c *binConn) readEdgeMsg() (*EdgeMsg, error) {
	kind, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameGob:
		msg := new(EdgeMsg)
		return msg, gobFromFrame(payload, msg)
	case frameEdgeHeartbeat:
		cur := binCursor{b: payload}
		msg := &EdgeMsg{Heartbeat: true, Epoch: cur.u64()}
		return msg, cur.done(kind)
	case frameEdgeBatch:
		cur := binCursor{b: payload}
		msg := &EdgeMsg{Epoch: cur.u64()}
		batch := &BatchMsg{
			BatchID:     cur.u64(),
			EdgeVersion: cur.i64(),
			FilterState: cur.blob(),
		}
		n := int(cur.u32())
		if rem := len(cur.b) - cur.off; n > rem/minWireUpdate {
			return nil, badFrame(kind, "update count exceeds payload")
		}
		if n > 0 {
			batch.Updates = make([]*fl.Update, 0, n)
		}
		for i := 0; i < n; i++ {
			u := &fl.Update{
				ClientID:    cur.i64(),
				BaseVersion: cur.i64(),
				Staleness:   cur.i64(),
				NumSamples:  cur.i64(),
			}
			if dim := int(cur.u32()); dim > 0 {
				if cur.need(0) == nil || dim > (len(cur.b)-cur.off)/8 {
					return nil, badFrame(kind, "slab exceeds payload")
				}
				u.Delta = make([]float64, dim)
				cur.f64sInto(u.Delta)
			}
			batch.Updates = append(batch.Updates, u)
		}
		msg.Batch = batch
		return msg, cur.done(kind)
	default:
		return nil, badFrame(kind, "unknown kind in edge->root direction")
	}
}

// writeRootMsg encodes one root->edge envelope: a raw frame for the
// steady-state reply (ack + epoch + optional task, optionally a pong),
// gob-in-frame for shard/handoff/peer pushes, nacks and terminal
// messages.
//
//afl:hotpath
func (c *binConn) writeRootMsg(msg *RootMsg) error {
	plain := msg.Shards == nil && msg.Handoff == nil && msg.Peers == nil &&
		msg.PeersVersion == 0 && msg.Nack == 0 && !msg.Done && !msg.Goodbye
	if !plain {
		return c.flushGob(msg)
	}
	var flags byte
	if msg.Task != nil {
		flags |= 1
	}
	if msg.Pong {
		flags |= 2
	}
	b := append(c.begin(), flags)
	b = appendU64(b, msg.Ack)
	b = appendU64(b, msg.Epoch)
	if msg.Task != nil {
		b = appendI64(b, msg.Task.Version)
		b = appendF64s(b, msg.Task.Params)
	}
	return c.flush(frameRootReply, b)
}

// readRootMsg decodes the next root->edge envelope (edge side).
func (c *binConn) readRootMsg() (*RootMsg, error) {
	kind, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameGob:
		msg := new(RootMsg)
		return msg, gobFromFrame(payload, msg)
	case frameRootReply:
		cur := binCursor{b: payload}
		flags := cur.u8()
		if flags&^byte(3) != 0 {
			return nil, badFrame(kind, "unknown flag bits")
		}
		msg := &RootMsg{
			Ack:   cur.u64(),
			Epoch: cur.u64(),
			Pong:  flags&2 != 0,
		}
		if flags&1 != 0 {
			version := cur.i64()
			var params []float64
			// Allocate only a non-empty slab: gob decodes an empty
			// Params as nil, and the codecs must agree byte for byte.
			if dim := cur.restDim(); dim > 0 {
				params = make([]float64, dim)
				cur.f64sInto(params)
			}
			msg.Task = &Task{Version: version, Params: params}
		}
		return msg, cur.done(kind)
	default:
		return nil, badFrame(kind, "unknown kind in root->edge direction")
	}
}

// --- replication protocol (primary <-> standby) ---

// writeReplicaMsg encodes one standby->primary envelope: a raw frame for
// the per-push acknowledgement, gob-in-frame for Hello and votes.
//
//afl:hotpath
func (c *binConn) writeReplicaMsg(msg *ReplicaMsg) error {
	if msg.Hello != nil || msg.Vote != nil {
		return c.flushGob(msg)
	}
	b := appendU64(c.begin(), msg.AckSeq)
	b = appendU64(b, msg.Epoch)
	return c.flush(frameReplAck, b)
}

// readReplicaMsg decodes the next standby->primary envelope (primary
// side).
func (c *binConn) readReplicaMsg() (*ReplicaMsg, error) {
	kind, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameGob:
		msg := new(ReplicaMsg)
		return msg, gobFromFrame(payload, msg)
	case frameReplAck:
		cur := binCursor{b: payload}
		msg := &ReplicaMsg{AckSeq: cur.u64(), Epoch: cur.u64()}
		return msg, cur.done(kind)
	default:
		return nil, badFrame(kind, "unknown kind in standby->primary direction")
	}
}

// writePrimaryMsg encodes one primary->standby envelope: raw frames for
// the log record push (the replication hot path) and the idle heartbeat,
// gob-in-frame for snapshots, nacks, grants and Goodbye.
//
//afl:hotpath
func (c *binConn) writePrimaryMsg(msg *PrimaryMsg) error {
	switch {
	case msg.Record != nil && msg.Snapshot == nil && msg.Nack == 0 &&
		!msg.Goodbye && !msg.Heartbeat && msg.Grant == nil:
		rec := msg.Record
		b := c.begin()
		b = appendU64(b, msg.Epoch)
		b = appendU64(b, msg.LatestSeq)
		b = appendU64(b, rec.Seq)
		b = appendU64(b, rec.Epoch)
		b = appendI64(b, rec.EdgeID)
		b = appendU64(b, rec.BatchID)
		b = appendString(b, rec.EdgeAddr)
		b = appendI64(b, rec.ShardVersion)
		b = appendI64(b, rec.Accepted)
		b = appendI64(b, rec.Deferred)
		b = appendI64(b, rec.Rejected)
		var flags byte
		if rec.FilterFull {
			flags = 1
		}
		b = append(b, flags)
		b = appendBlob(b, rec.FilterState)
		b = appendU32(b, uint32(len(rec.Delta)))
		b = appendF64s(b, rec.Delta)
		return c.flush(frameReplRecord, b)
	case msg.Heartbeat && msg.Record == nil && msg.Snapshot == nil &&
		msg.Nack == 0 && !msg.Goodbye && msg.Grant == nil:
		b := appendU64(c.begin(), msg.Epoch)
		b = appendU64(b, msg.LatestSeq)
		return c.flush(frameReplHeartbeat, b)
	default:
		return c.flushGob(msg)
	}
}

// readPrimaryMsg decodes the next primary->standby envelope (standby
// side).
func (c *binConn) readPrimaryMsg() (*PrimaryMsg, error) {
	kind, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameGob:
		msg := new(PrimaryMsg)
		return msg, gobFromFrame(payload, msg)
	case frameReplHeartbeat:
		cur := binCursor{b: payload}
		msg := &PrimaryMsg{Heartbeat: true, Epoch: cur.u64(), LatestSeq: cur.u64()}
		return msg, cur.done(kind)
	case frameReplRecord:
		cur := binCursor{b: payload}
		msg := &PrimaryMsg{Epoch: cur.u64(), LatestSeq: cur.u64()}
		rec := &ReplRecord{
			Seq:          cur.u64(),
			Epoch:        cur.u64(),
			EdgeID:       cur.i64(),
			BatchID:      cur.u64(),
			EdgeAddr:     cur.str(),
			ShardVersion: cur.i64(),
			Accepted:     cur.i64(),
			Deferred:     cur.i64(),
			Rejected:     cur.i64(),
		}
		flags := cur.u8()
		if flags&^byte(1) != 0 {
			return nil, badFrame(kind, "unknown flag bits")
		}
		rec.FilterFull = flags&1 != 0
		rec.FilterState = cur.blob()
		if dim := int(cur.u32()); dim > 0 {
			if cur.need(0) == nil || dim > (len(cur.b)-cur.off)/8 {
				return nil, badFrame(kind, "slab exceeds payload")
			}
			rec.Delta = make([]float64, dim)
			cur.f64sInto(rec.Delta)
		}
		msg.Record = rec
		return msg, cur.done(kind)
	default:
		return nil, badFrame(kind, "unknown kind in primary->standby direction")
	}
}

// durationFromI64 rebuilds a time.Duration from its nanosecond count.
func durationFromI64(v int) time.Duration { return time.Duration(v) }
