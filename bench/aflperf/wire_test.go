package main

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/transport"
)

// pipeListener hands the server one end of a net.Pipe per dial, so the
// test drives a real transport.Server with no sockets, ports or timing.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, errors.New("pipe listener closed")
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return memAddr{} }

// TestWireClientAgainstServer drives a real server with the generator's
// own codec, both flavours, in lockstep: every update must be received
// well-formed, answered with a task whose version never goes backwards,
// and the terminal Done must decode.
func TestWireClientAgainstServer(t *testing.T) {
	const (
		dim    = 8
		goal   = 4
		rounds = 6
	)
	srv, err := transport.NewServer(transport.ServerConfig{
		InitialParams:   make([]float64, dim),
		AggregationGoal: goal,
		Rounds:          rounds,
		MaxMessageBytes: 1 << 20,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis := newPipeListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	codecs := []transport.Codec{transport.CodecBinary, transport.CodecGob, transport.CodecBinary, transport.CodecGob}
	delta := []float64{1, -2, 3.5, 0, 1e-300, -1e300, 0.25, 7}
	clients := make([]*wireClient, len(codecs))
	seen := make([]int, len(codecs))
	// net.Pipe is synchronous: the Hello must be written while the server
	// reads it, and the first task read while the server writes it.
	for i, codec := range codecs {
		conn := lis.dial()
		c, err := newWireClient(conn, i, dim, codec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.readReply()
		if err != nil || !rep.HasTask || rep.Version != 0 {
			t.Fatalf("client %d first task: %+v, %v", i, rep, err)
		}
		clients[i] = c
	}

	frame := encodeUpdateFrame(delta)
	done := 0
	for done < len(clients) {
		for i, c := range clients {
			if c == nil {
				continue
			}
			if c.codec == transport.CodecGob {
				err = c.sendGob(delta, seen[i])
			} else {
				err = c.sendFrame(frame, seen[i])
			}
			if err != nil {
				t.Fatalf("client %d send: %v", i, err)
			}
			rep, err := c.readReply()
			if err != nil {
				t.Fatalf("client %d reply: %v", i, err)
			}
			if rep.Done {
				c.close()
				clients[i] = nil
				done++
				continue
			}
			if !rep.HasTask || rep.Nack != 0 || rep.Goodbye {
				t.Fatalf("client %d: unexpected reply %+v", i, rep)
			}
			if rep.Version < seen[i] {
				t.Fatalf("client %d: version went backwards, %d after %d", i, rep.Version, seen[i])
			}
			seen[i] = rep.Version
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.DroppedMalformed != 0 || st.DroppedOversize != 0 || st.NacksSent != 0 || st.HandlerPanics != 0 {
		t.Fatalf("server saw a bad client: %+v", st)
	}
	// Updates that arrive after the last round are answered Done without
	// being counted, so exactly rounds*goal were received.
	if st.Rounds != rounds || st.UpdatesReceived != rounds*goal || st.Accepted != rounds*goal {
		t.Fatalf("%d rounds of %d: server counted %+v", rounds, goal, st)
	}
}

// TestUpdateFrameLayout pins the documented update frame: kind, length,
// base version, then the slab, all little-endian.
func TestUpdateFrameLayout(t *testing.T) {
	frame := encodeUpdateFrame([]float64{1, 2})
	want := []byte{frameUpdate, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40}
	if !bytes.Equal(frame, want) {
		t.Fatalf("update frame\n got %x\nwant %x", frame, want)
	}
}

// TestReadReplyRejectsGarbage: a reply that is not a well-formed frame is
// an error, never a fabricated version.
func TestReadReplyRejectsGarbage(t *testing.T) {
	for name, raw := range map[string][]byte{
		"unknown kind":     {0x7f, 0, 0, 0, 0},
		"short task frame": {frameTask, 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		"wrong dimension":  append([]byte{frameTask, 32, 0, 0, 0}, make([]byte, 32)...),
	} {
		client, server := net.Pipe()
		go func() {
			_, _ = server.Write(raw)
			_ = server.Close()
		}()
		c := &wireClient{dim: 4, codec: transport.CodecBinary, conn: &countingConn{Conn: client}}
		if _, err := c.readReply(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		_ = client.Close()
	}
}

// TestOpenLoopOverLoopback plays a schedule whose every request is
// already due through the open loop's non-blocking side against a real
// server on a loopback socket: small frames from binary and gob clients
// alike, then frames larger than a fresh socket buffer, which go out in
// pieces. Every request must be answered, and the server must have
// received exactly what was sent, well-formed.
func TestOpenLoopOverLoopback(t *testing.T) {
	for _, w := range []*workload{
		{Name: "small mixed codecs", Dim: 8, Goal: 4, Hostile: true},
		{Name: "large frames", Dim: 20000, Goal: 4},
	} {
		srv, err := transport.NewServer(transport.ServerConfig{
			InitialParams:   make([]float64, w.Dim),
			AggregationGoal: w.Goal,
			StalenessLimit:  stalenessLimit,
			Rounds:          hugeRounds,
			MaxMessageBytes: 1 << 20,
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(lis) }()
		f, err := connectFleet(w, w.generate(1), []string{lis.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		const requests = 3 * numClients
		recs, tally := f.openLoop(make([]int64, requests))
		f.close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		if tally != (counts{Attempted: requests, Succeeded: requests}) || f.firstErr != nil {
			t.Fatalf("%s: tally %+v, first error %v", w.Name, tally, f.firstErr)
		}
		for i, r := range recs {
			if !r.OK || r.Sent == 0 || r.Replied < r.Sent {
				t.Fatalf("%s: request %d: %+v", w.Name, i, r)
			}
		}
		st := srv.Stats()
		if st.UpdatesReceived != requests || st.DroppedMalformed != 0 || st.DroppedOversize != 0 || st.NacksSent != 0 || st.HandlerPanics != 0 {
			t.Fatalf("%s: server counted %+v", w.Name, st)
		}
	}
}
