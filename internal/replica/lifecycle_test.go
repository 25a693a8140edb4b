package replica

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/transport"
)

// unreachable is a replication dialer whose primary can never be reached.
func unreachable(string) (net.Conn, error) { return nil, errors.New("injected: unreachable") }

// serveNode runs n.Serve(lis) in the background and returns its result
// channel.
func serveNode(n *Node, lis net.Listener) <-chan error {
	served := make(chan error, 1)
	go func() { served <- n.Serve(lis) }()
	return served
}

// closeAndWait closes n and waits for Close and the Serve behind served
// to return, failing the test instead of hanging when either does not.
func closeAndWait(t *testing.T, n *Node, served <-chan error) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	deadline := time.After(5 * time.Second)
	for closed != nil || served != nil {
		select {
		case err := <-closed:
			if err != nil {
				t.Errorf("Close: %v", err)
			}
			closed = nil
		case <-served:
			served = nil
		case <-deadline:
			t.Errorf("5s after Close: Close returned %v, Serve returned %v", closed == nil, served == nil)
			return
		}
	}
}

// TestCloseUnbindsListeners: after Close, Serve returns and neither the
// edge nor the replication address accepts a dial, on every role. A
// standby's edge listener must not outlive the node either, or a
// re-homing edge connects to it and hangs in a read timeout instead of
// rotating. A Serve that starts after Close starts no goroutine.
func TestCloseUnbindsListeners(t *testing.T) {
	for _, tc := range []struct {
		name            string
		standby         bool
		serveAfterClose bool
	}{
		{name: "primary"},
		{name: "standby", standby: true},
		{name: "serve after close", standby: true, serveAfterClose: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NodeID: 0, ReplListen: "127.0.0.1:0", Lease: time.Second}
			if tc.standby {
				cfg.NodeID = 1
				cfg.Upstreams = []string{"127.0.0.1:1"}
				cfg.Dial = unreachable
			}
			root := testRoot(t, nil)
			node, err := NewNode(cfg, root)
			if err != nil {
				t.Fatal(err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			edgeAddr, replAddr := lis.Addr().String(), node.ReplAddr()

			if tc.serveAfterClose {
				if err := node.Close(); err != nil {
					t.Fatal(err)
				}
				before := runtime.NumGoroutine()
				if err := node.Serve(lis); err != nil {
					t.Errorf("Serve after Close = %v, want nil", err)
				}
				waitFor(t, time.Second, "no goroutine left by Serve after Close", func() bool {
					return runtime.NumGoroutine() <= before
				})
			} else {
				served := serveNode(node, lis)
				if tc.standby {
					waitFor(t, 5*time.Second, "the standby loop", func() bool { return node.Stats().UplinkFailures > 0 })
				} else {
					waitFor(t, 5*time.Second, "the root to serve", func() bool { return root.Addr() != "" })
				}
				closeAndWait(t, node, served)
			}

			for _, addr := range []string{edgeAddr, replAddr} {
				if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					conn.Close()
					t.Errorf("dial %s connected after Close", addr)
				}
			}
		})
	}
}

// noDeadlineListener hides the listener's SetDeadline, as a listener from
// tls.NewListener does.
type noDeadlineListener struct{ net.Listener }

// TestServeListenerWithoutDeadline: a lease-only standby served on a
// listener without SetDeadline promotes with no edge dialing, serves the
// first edge after promotion, and its Close and Serve return (checked at
// cleanup).
func TestServeListenerWithoutDeadline(t *testing.T) {
	node, err := NewNode(Config{
		NodeID:         1,
		Upstreams:      []string{"127.0.0.1:1"},
		Lease:          100 * time.Millisecond,
		Dial:           unreachable,
		RetryBaseDelay: 5 * time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	}, testRoot(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := serveNode(node, noDeadlineListener{lis})
	t.Cleanup(func() { closeAndWait(t, node, served) })

	waitFor(t, 5*time.Second, "promotion with no edge dialing", func() bool { return node.Role() == RolePrimary })
	edge := dialEdge(t, lis.Addr().String())
	reply := edge.hello(1, 1)
	if reply.Nack != 0 || reply.Task == nil {
		t.Fatalf("first edge after promotion got nack %v, task %v", reply.Nack, reply.Task)
	}
	if reply.Epoch != 1 {
		t.Errorf("reply epoch = %d, want the promoted 1", reply.Epoch)
	}
}

// panicConn panics on Read, the first thing a replication handler does.
type panicConn struct{ net.Conn }

func (panicConn) Read([]byte) (int, error) { panic("injected: replication conn read") }

// panicOnceListener hands out one panicConn, then the real listener's
// connections.
type panicOnceListener struct {
	net.Listener
	once sync.Once
}

func (l *panicOnceListener) Accept() (net.Conn, error) {
	var conn net.Conn
	l.once.Do(func() {
		c, peer := net.Pipe()
		peer.Close()
		conn = panicConn{c}
	})
	if conn != nil {
		return conn, nil
	}
	return l.Listener.Accept()
}

// TestReplHandlerPanicIsolated: a panic in a replication connection
// handler is recovered and counted in HandlerPanics; the node serves on
// and the next standby attaches.
func TestReplHandlerPanicIsolated(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{
		NodeID:       0,
		ReplListener: &panicOnceListener{Listener: lis},
		Lease:        200 * time.Millisecond,
	}, testRoot(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, node)
	waitFor(t, 5*time.Second, "the recovered panic", func() bool { return node.Stats().HandlerPanics == 1 })

	conn, err := net.DialTimeout("tcp", node.ReplAddr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	uc := transport.NewUpstreamConn(conn, 0, 5*time.Second, 5*time.Second)
	defer uc.Close()
	if err := uc.WriteReplica(&transport.ReplicaMsg{Hello: &transport.ReplHello{NodeID: 1, NextSeq: 1}}); err != nil {
		t.Fatal(err)
	}
	msg, err := uc.ReadPrimary()
	if err != nil {
		t.Fatalf("standby attaching after the panic: %v", err)
	}
	if msg.Nack != 0 {
		t.Fatalf("standby attaching after the panic: nack %v", msg.Nack)
	}
	if st := node.Stats(); st.StandbyAttaches != 1 || st.HandlerPanics != 1 {
		t.Errorf("stats after the panic: %+v", st)
	}
}

// TestCloseSendsGoodbye: a primary's Close lets each attached standby
// session write its Goodbye before the connection is torn down, so the
// standby knows the primary shut down rather than failed.
func TestCloseSendsGoodbye(t *testing.T) {
	for i := 0; i < 20; i++ {
		node, err := NewNode(Config{NodeID: 0, ReplListen: "127.0.0.1:0", Lease: 200 * time.Millisecond}, testRoot(t, nil))
		if err != nil {
			t.Fatal(err)
		}
		startNode(t, node)
		conn, err := net.DialTimeout("tcp", node.ReplAddr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		uc := transport.NewUpstreamConn(conn, 0, 5*time.Second, 5*time.Second)
		if err := uc.WriteReplica(&transport.ReplicaMsg{Hello: &transport.ReplHello{NodeID: 1, NextSeq: 1}}); err != nil {
			t.Fatal(err)
		}
		ended := make(chan error, 1)
		go func() {
			for {
				msg, err := uc.ReadPrimary()
				switch {
				case err != nil:
					ended <- err
					return
				case msg.Goodbye:
					ended <- nil
					return
				}
				if err := uc.WriteReplica(&transport.ReplicaMsg{AckSeq: 0, Epoch: msg.Epoch}); err != nil {
					ended <- err
					return
				}
			}
		}()
		waitFor(t, 5*time.Second, "the standby to attach", func() bool { return node.Stats().StandbyAttaches == 1 })
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-ended:
			if err != nil {
				t.Fatalf("iteration %d: session ended without a Goodbye: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: no Goodbye within 5s of Close", i)
		}
		uc.Close()
	}
}
