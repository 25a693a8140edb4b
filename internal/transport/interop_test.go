package transport

import (
	"bytes"
	"encoding/gob"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// This file proves codec coexistence end to end: a fleet where some
// clients speak the binary envelope and some the legacy gob stream must
// drive the server to EXACTLY the state an all-gob fleet produces — the
// same global parameters and byte-identical filter detection state. The
// wire format is allowed to change how bytes travel, never what the
// filter sees.
//
// Determinism comes from lockstep scripting: the protocol is strictly
// request-reply per connection, and rounds commit synchronously inside
// receiveUpdate, so driving the clients one at a time in a fixed order
// fixes the admission order — any state divergence between the runs can
// then only come from the codecs.

// scriptedWire is one scripted client connection in either codec.
type scriptedWire struct {
	conn net.Conn
	// gob codec
	enc *gob.Encoder
	dec *gob.Decoder
	// binary codec
	bin     *binConn
	scratch []float64
}

func dialScripted(t *testing.T, addr string, codec Codec) *scriptedWire {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w := &scriptedWire{conn: conn}
	if codec == CodecBinary {
		w.bin = newBinConn(conn, 0, true)
	} else {
		w.enc = gob.NewEncoder(conn)
		w.dec = gob.NewDecoder(conn)
	}
	return w
}

func (w *scriptedWire) send(t *testing.T, msg *ClientMsg) {
	t.Helper()
	if err := w.trySend(msg); err != nil {
		t.Fatalf("scripted send: %v", err)
	}
}

func (w *scriptedWire) recv(t *testing.T) *ServerMsg {
	t.Helper()
	msg, err := w.tryRecv()
	if err != nil {
		t.Fatalf("scripted recv: %v", err)
	}
	return msg
}

// trySend and tryRecv are send and recv for client goroutines, which must
// not call t.Fatal.
func (w *scriptedWire) trySend(msg *ClientMsg) error {
	if w.bin != nil {
		return w.bin.writeClientMsg(msg)
	}
	return w.enc.Encode(msg)
}

func (w *scriptedWire) tryRecv() (*ServerMsg, error) {
	var msg ServerMsg
	var err error
	if w.bin != nil {
		w.scratch, err = w.bin.readServerMsg(&msg, w.scratch)
	} else {
		err = w.dec.Decode(&msg)
	}
	return &msg, err
}

// scriptDelta is the deterministic update of client i at step s: honest
// clients send small deltas, client 0 runs a crude gradient-scaling
// attack the filter should learn to reject.
func scriptDelta(i, step, dim int) []float64 {
	scale := 0.05
	if i == 0 {
		scale = 20
	}
	return randx.NormalVector(randx.New(int64(1000*i+step)), dim, 0, scale)
}

// runScriptedDeployment drives one server with one scripted client per
// codec in lockstep until the deployment completes, returning the final
// global parameters, the filter's serialized detection state and the
// server's counters. poison, when set, may rewrite client i's delta at
// each step before it is sent.
func runScriptedDeployment(t *testing.T, codecs []Codec, rounds int, poison func(i, step int, delta []float64)) ([]float64, []byte, ServerStats) {
	t.Helper()
	af, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	initial := initialParams(t)
	server, err := NewServer(ServerConfig{
		InitialParams:   initial,
		AggregationGoal: len(codecs),
		StalenessLimit:  10,
		Rounds:          rounds,
	}, af, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	clients := make([]*scriptedWire, len(codecs))
	version := make([]int, len(codecs))
	for i, codec := range codecs {
		clients[i] = dialScripted(t, lis.Addr().String(), codec)
		clients[i].send(t, &ClientMsg{Hello: &Hello{
			ClientID:   i,
			NumSamples: 10 + i,
			ModelDim:   len(initial),
			Codec:      codec,
		}})
		reply := clients[i].recv(t)
		if reply.Task == nil {
			t.Fatalf("client %d: no initial task in %+v", i, reply)
		}
		version[i] = reply.Task.Version
	}

	done := false
	for step := 0; !done; step++ {
		if step > 100*rounds {
			t.Fatal("deployment did not complete within the step budget")
		}
		for i, c := range clients {
			if done {
				break
			}
			delta := scriptDelta(i, step, len(initial))
			if poison != nil {
				poison(i, step, delta)
			}
			c.send(t, &ClientMsg{Update: &UpdateMsg{BaseVersion: version[i], Delta: delta}})
			reply := c.recv(t)
			switch {
			case reply.Done:
				done = true
			case reply.Task != nil:
				version[i] = reply.Task.Version
			default:
				t.Fatalf("client %d: unexpected reply %+v", i, reply)
			}
		}
	}
	for _, c := range clients {
		_ = c.conn.Close()
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	state, err := af.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return server.FinalParams(), state, server.Stats()
}

// TestMixedCodecFleetMatchesAllGob runs the same scripted deployment —
// same clients, same update schedule, same attacker — once with a mixed
// gob/binary fleet and once all-gob, and demands identical outcomes.
func TestMixedCodecFleetMatchesAllGob(t *testing.T) {
	const rounds = 4
	mixed := []Codec{CodecGob, CodecBinary, CodecGob, CodecBinary}
	control := []Codec{CodecGob, CodecGob, CodecGob, CodecGob}

	mixedParams, mixedState, _ := runScriptedDeployment(t, mixed, rounds, nil)
	controlParams, controlState, _ := runScriptedDeployment(t, control, rounds, nil)

	if !reflect.DeepEqual(mixedParams, controlParams) {
		t.Errorf("final params diverge between mixed-codec and all-gob fleets:\n mixed:   %v\n control: %v",
			mixedParams, controlParams)
	}
	if !bytes.Equal(mixedState, controlState) {
		t.Errorf("filter state diverges between mixed-codec and all-gob fleets (%d vs %d bytes)",
			len(mixedState), len(controlState))
	}
}

// TestNonFiniteDeltaDropped: a delta holding a NaN or an Inf is dropped
// at admission like a dimension mismatch (counted in DroppedMalformed,
// never buffered, answered with the plain task) over either codec, so
// one client cannot poison the global model.
func TestNonFiniteDeltaDropped(t *testing.T) {
	for _, codec := range []Codec{CodecGob, CodecBinary} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			codecs := make([]Codec, 8)
			for i := range codecs {
				codecs[i] = codec
			}
			params, _, stats := runScriptedDeployment(t, codecs, 4, func(i, step int, delta []float64) {
				if i == 5 && step == 1 {
					delta[3] = bad
				}
			})
			if !vecmath.AllFinite(params) {
				t.Errorf("%s codec, %v at coordinate 3: final params[3] = %v", codec, bad, params[3])
			}
			if stats.DroppedMalformed != 1 {
				t.Errorf("%s codec, %v at coordinate 3: DroppedMalformed = %d, want 1", codec, bad, stats.DroppedMalformed)
			}
		}
	}
}
