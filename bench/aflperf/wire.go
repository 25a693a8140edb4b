package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"syscall"
	"time"

	"github.com/asyncfl/asyncfilter/internal/transport"
)

// This file is the generator's own client side of the wire protocol
// documented in DESIGN.md §14. It is written against the document, not
// against internal/transport's unexported codec, so the benchmark keeps
// measuring the server from outside: a binary connection opens with the
// preamble 00 'A' 'F' 01 and then carries frames
//
//	kind u8 | payload length u32 LE | payload
//
// where the Hello is a gob-encoded transport.ClientMsg in a kind-0x00
// frame, an update is kind 0x01 (BaseVersion i64 LE + float64 LE slab)
// and a task reply is kind 0x03 (Version i64, Nack i64, RetryAfter i64,
// parameter slab). A gob connection is a plain gob stream of the
// exported envelope types. Only Version, Nack and RetryAfter are decoded
// from a reply; the parameter slab is length-checked and skipped, so the
// generator spends its CPU on load, not on decoding models it never uses.

const (
	frameGob    byte = 0x00
	frameUpdate byte = 0x01
	frameTask   byte = 0x03
	frameHdrLen      = 5
	// taskFixedLen is Version + Nack + RetryAfter.
	taskFixedLen = 24
)

var binaryPreamble = [4]byte{0x00, 'A', 'F', 1}

// reply is the part of a server message the generator acts on.
type reply struct {
	Version    int
	Nack       transport.NackCode
	RetryAfter time.Duration
	// HasTask is false for the terminal Done / Goodbye envelopes.
	HasTask, Done, Goodbye bool
}

// gobReply mirrors transport.ServerMsg field-for-field by name with the
// parameter vector left out: gob matches fields by name and skips what
// the receiver does not declare.
type gobReply struct {
	Task *struct {
		Version int
	}
	Nack       transport.NackCode
	RetryAfter time.Duration
	Done       bool
	Goodbye    bool
}

func (g *gobReply) reply() reply {
	r := reply{Nack: g.Nack, RetryAfter: g.RetryAfter, Done: g.Done, Goodbye: g.Goodbye}
	if g.Task != nil {
		r.HasTask = true
		r.Version = g.Task.Version
	}
	return r
}

// countingConn counts the exact bytes crossing the socket in both
// directions. One goroutine drives a client at a time, so plain fields
// suffice.
type countingConn struct {
	net.Conn
	bytes int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes += int64(n)
	return n, err
}

// wireClient is one client identity on one persistent connection. It
// has a blocking side (send*, readReply), which the closed loop and the
// set-up use, and a side that never blocks (start, poll), which the
// open loop uses to keep many requests in flight from one thread.
type wireClient struct {
	id    int
	dim   int
	codec transport.Codec
	conn  *countingConn
	// raw is the socket itself, for I/O that must not block; nil when the
	// connection is not a TCP one (the hermetic test's net.Pipe).
	raw syscall.RawConn
	// Binary codec: in holds the reply frame read so far, out the part of
	// the request frame start could not write yet.
	in, out []byte
	// Gob codec.
	br  *bufio.Reader
	enc *gob.Encoder
	dec *gob.Decoder
}

// ioTimeout bounds every generator read and write: an unanswered request
// is a failure, not a hang.
const ioTimeout = 30 * time.Second

var errUnanswered = errors.New("no reply within the i/o timeout")

// newWireClient dresses conn for the codec and sends the Hello. The
// server answers a Hello with the first task; the caller reads it with
// readReply.
func newWireClient(conn net.Conn, id, dim int, codec transport.Codec) (*wireClient, error) {
	cc := &countingConn{Conn: conn}
	c := &wireClient{id: id, dim: dim, codec: codec, conn: cc}
	if tc, ok := conn.(*net.TCPConn); ok {
		raw, err := tc.SyscallConn()
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", id, err)
		}
		c.raw = raw
	}
	hello := &transport.ClientMsg{Hello: &transport.Hello{ClientID: id, NumSamples: 1, ModelDim: dim, Codec: codec}}
	c.arm(0)
	if codec == transport.CodecGob {
		c.br = bufio.NewReaderSize(cc, 4096)
		c.enc = gob.NewEncoder(cc)
		c.dec = gob.NewDecoder(c.br)
		if err := c.enc.Encode(hello); err != nil {
			return nil, fmt.Errorf("client %d: hello: %w", id, err)
		}
		return c, nil
	}
	c.in = make([]byte, 0, frameHdrLen+taskFixedLen+8*dim)
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(hello); err != nil {
		return nil, fmt.Errorf("client %d: hello: %w", id, err)
	}
	msg := append([]byte(nil), binaryPreamble[:]...)
	msg = append(msg, frameGob)
	msg = binary.LittleEndian.AppendUint32(msg, uint32(body.Len()))
	msg = append(msg, body.Bytes()...)
	if _, err := cc.Write(msg); err != nil {
		return nil, fmt.Errorf("client %d: hello: %w", id, err)
	}
	return c, nil
}

// arm pushes the connection deadline out to ioTimeout past the end of a
// phase of the given length. The load loops call it once per phase
// rather than once per request, keeping timer churn out of the measured
// path.
func (c *wireClient) arm(phase time.Duration) {
	_ = c.conn.SetDeadline(time.Now().Add(phase + ioTimeout))
}

// encodeUpdateFrame pre-encodes a binary update frame for delta; only
// the BaseVersion field is rewritten per send.
func encodeUpdateFrame(delta []float64) []byte {
	b := make([]byte, 0, frameHdrLen+8+8*len(delta))
	b = append(b, frameUpdate)
	b = binary.LittleEndian.AppendUint32(b, uint32(8+8*len(delta)))
	b = binary.LittleEndian.AppendUint64(b, 0)
	for _, x := range delta {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// sendFrame stamps base into a frame from encodeUpdateFrame and writes
// all of it. Binary codec only.
func (c *wireClient) sendFrame(frame []byte, base int) error {
	binary.LittleEndian.PutUint64(frame[frameHdrLen:], uint64(int64(base)))
	_, err := c.conn.Write(frame)
	return err
}

// sendGob encodes one update on the gob stream. Gob codec only.
func (c *wireClient) sendGob(delta []float64, base int) error {
	return c.enc.Encode(&transport.ClientMsg{Update: &transport.UpdateMsg{BaseVersion: base, Delta: delta}})
}

var errBadReply = errors.New("malformed server reply")

// readReply reads the server's next message, blocking until it is whole.
func (c *wireClient) readReply() (reply, error) {
	if c.codec == transport.CodecGob {
		var g gobReply
		if err := c.dec.Decode(&g); err != nil {
			return reply{}, err
		}
		return g.reply(), nil
	}
	if whole, err := c.readFrame(true); err != nil {
		return reply{}, err
	} else if !whole {
		return reply{}, io.ErrUnexpectedEOF
	}
	return c.parseFrame()
}

// start is sendFrame without blocking: what the socket does not take at
// once stays in c.out for poll to finish. Binary codec over TCP only.
func (c *wireClient) start(frame []byte, base int) error {
	binary.LittleEndian.PutUint64(frame[frameHdrLen:], uint64(int64(base)))
	c.out = frame
	return c.flush()
}

// poll moves the request in flight along without blocking: it writes
// what is left of the request, then reads what has arrived of the reply.
// done is true once the whole reply is in. A gob reply is decoded by a
// blocking read as soon as its first byte is here; gob clients exist at
// dim 256 only, where a reply is one segment.
func (c *wireClient) poll() (rep reply, done bool, err error) {
	if c.codec == transport.CodecGob {
		if !c.readable() {
			return reply{}, false, nil
		}
		rep, err = c.readReply()
		return rep, err == nil, err
	}
	if err := c.flush(); err != nil || len(c.out) > 0 {
		return reply{}, false, err
	}
	if whole, err := c.readFrame(false); err != nil || !whole {
		return reply{}, false, err
	}
	rep, err = c.parseFrame()
	return rep, err == nil, err
}

// flush writes as much of c.out as the socket takes without blocking.
func (c *wireClient) flush() error {
	for len(c.out) > 0 {
		var n int
		var werr error
		if err := c.raw.Write(func(fd uintptr) bool {
			n, werr = syscall.Write(int(fd), c.out)
			return true
		}); err != nil {
			return err
		}
		if werr == syscall.EAGAIN || werr == syscall.EINTR {
			return nil
		}
		if werr != nil {
			return werr
		}
		c.conn.bytes += int64(n)
		c.out = c.out[n:]
	}
	return nil
}

// readable reports, without blocking, whether bytes of a reply have
// arrived (or the connection has ended, which the next read reports).
func (c *wireClient) readable() bool {
	if c.br.Buffered() > 0 {
		return true
	}
	ready := false
	var one [1]byte
	err := c.raw.Read(func(fd uintptr) bool {
		_, _, rerr := syscall.Recvfrom(int(fd), one[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		ready = rerr != syscall.EAGAIN && rerr != syscall.EINTR
		return true
	})
	return ready || err != nil
}

// readSome reads what the socket has into p. When block is false and the
// socket has nothing, it returns 0 and no error.
func (c *wireClient) readSome(p []byte, block bool) (int, error) {
	if block {
		return c.conn.Read(p)
	}
	var n int
	var rerr error
	if err := c.raw.Read(func(fd uintptr) bool {
		n, rerr = syscall.Read(int(fd), p)
		return true
	}); err != nil {
		return 0, err
	}
	switch {
	case rerr == syscall.EAGAIN || rerr == syscall.EINTR:
		return 0, nil
	case rerr != nil:
		return 0, rerr
	case n == 0:
		return 0, io.EOF
	}
	c.conn.bytes += int64(n)
	return n, nil
}

// readFrame reads into c.in until it holds one whole frame. With block
// false it returns false as soon as the socket has no more bytes yet.
func (c *wireClient) readFrame(block bool) (whole bool, err error) {
	for {
		need := frameHdrLen
		if len(c.in) >= frameHdrLen {
			need += int(binary.LittleEndian.Uint32(c.in[1:]))
			if need > frameHdrLen+taskFixedLen+8*c.dim+(1<<20) {
				return false, fmt.Errorf("frame of %d bytes: %w", need, errBadReply)
			}
			if len(c.in) >= need {
				return true, nil
			}
		}
		if cap(c.in) < need {
			c.in = append(make([]byte, 0, need), c.in...)
		}
		n, err := c.readSome(c.in[len(c.in):cap(c.in)], block)
		if err != nil {
			return false, err
		}
		if n == 0 {
			return false, nil
		}
		c.in = c.in[:len(c.in)+n]
	}
}

// parseFrame decodes the whole frame at the head of c.in and removes it.
func (c *wireClient) parseFrame() (reply, error) {
	total := frameHdrLen + int(binary.LittleEndian.Uint32(c.in[1:]))
	kind, payload := c.in[0], c.in[frameHdrLen:total]
	defer func() { c.in = c.in[:copy(c.in, c.in[total:])] }()
	switch kind {
	case frameTask:
		if len(payload) != taskFixedLen+8*c.dim {
			return reply{}, fmt.Errorf("task frame of %d bytes, want %d: %w", len(payload), taskFixedLen+8*c.dim, errBadReply)
		}
		return reply{
			HasTask:    true,
			Version:    int(int64(binary.LittleEndian.Uint64(payload[0:]))),
			Nack:       transport.NackCode(int64(binary.LittleEndian.Uint64(payload[8:]))),
			RetryAfter: time.Duration(int64(binary.LittleEndian.Uint64(payload[16:]))),
		}, nil
	case frameGob:
		// Shard pushes, Done and Goodbye: rare, so decoding the whole
		// envelope here costs nothing that matters.
		var g gobReply
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&g); err != nil {
			return reply{}, fmt.Errorf("gob frame: %v: %w", err, errBadReply)
		}
		return g.reply(), nil
	}
	return reply{}, fmt.Errorf("frame kind 0x%02x: %w", kind, errBadReply)
}

func (c *wireClient) close() { _ = c.conn.Close() }
