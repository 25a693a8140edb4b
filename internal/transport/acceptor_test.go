package transport

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startAcceptor serves a on a loopback listener and returns its address
// and Serve's result channel.
func startAcceptor(t *testing.T, a *Acceptor) (string, <-chan error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- a.Serve(lis) }()
	return lis.Addr().String(), serveErr
}

// A panicking handler is counted once, its connection is dropped, and the
// next connection is served as usual.
func TestAcceptorHandlerPanicIsolated(t *testing.T) {
	var panics atomic.Int32
	a := NewAcceptor(make(chan struct{}), func(conn net.Conn) {
		var b [1]byte
		if _, err := io.ReadFull(conn, b[:]); err != nil || b[0] == 'p' {
			panic("crafted payload")
		}
		_, _ = conn.Write([]byte{7})
	}, func() { panics.Add(1) })
	addr, serveErr := startAcceptor(t, a)

	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Write([]byte{'p'}); err != nil {
		t.Fatal(err)
	}
	// The core closes the panicked connection: the read ends in EOF.
	if _, err := io.ReadAll(first); err != nil {
		t.Fatalf("panicked connection: %v", err)
	}
	first.Close()

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Write([]byte{'s'}); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := io.ReadFull(second, b[:]); err != nil || b[0] != 7 {
		t.Fatalf("second connection: read %v, %v; want 7", b[0], err)
	}
	second.Close()

	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := panics.Load(); got != 1 {
		t.Errorf("panics reported = %d, want 1", got)
	}
}

// Close returns nil on its second call, and Serve returns nil after it.
func TestAcceptorCloseIdempotent(t *testing.T) {
	a := NewAcceptor(make(chan struct{}), func(net.Conn) {}, func() {})
	_, serveErr := startAcceptor(t, a)
	if err := a.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve after close: %v", err)
	}
}

// failingListener lets its ticker tick once, then fails Accept on its
// own, as a listener whose socket broke would.
type failingListener struct {
	net.Listener
	ticked <-chan struct{}
	err    error
}

func (l *failingListener) Accept() (net.Conn, error) {
	<-l.ticked
	return nil, l.err
}

// A listener failing on its own is a Serve error, wrapped; a panicking
// tick neither stops its loop nor goes unreported. Serve joins its
// tickers before returning, so a ticker loop that ignored Serve's exit
// would hang this test instead of letting it return.
func TestAcceptorListenerFailureStopsTickers(t *testing.T) {
	var panics, ticks atomic.Int32
	ticked := make(chan struct{})
	a := NewAcceptor(make(chan struct{}), func(net.Conn) {}, func() { panics.Add(1) })
	a.Every(time.Millisecond, "test tick", func(time.Time) {
		switch ticks.Add(1) {
		case 1:
			panic("first tick")
		case 2:
			close(ticked)
		}
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	boom := errors.New("socket broke")
	err = a.Serve(&failingListener{Listener: inner, ticked: ticked, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("serve = %v, want the accept error wrapped", err)
	}
	if got := panics.Load(); got != 1 {
		t.Errorf("panics reported = %d, want 1", got)
	}
}

// The connection snapshot Drain reads (nudgeConns, awaitWinddown) holds a
// connection exactly while its handler runs, and a connection that
// arrives after Close is never handled or tracked. Either way the core
// closes the connection.
func TestAcceptorLiveConnsSnapshot(t *testing.T) {
	var a *Acceptor
	var handled int
	var sawSelf, sawOther bool
	served, servedPeer := net.Pipe()
	untracked, untrackedPeer := net.Pipe()
	defer untracked.Close()
	defer untrackedPeer.Close()
	a = NewAcceptor(make(chan struct{}), func(conn net.Conn) {
		handled++
		for _, c := range a.liveConns() {
			sawSelf = sawSelf || c == conn
			sawOther = sawOther || c == untracked
		}
	}, func() {})
	closedByCore := func(peer net.Conn) bool {
		_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := peer.Read(make([]byte, 1))
		return errors.Is(err, io.EOF)
	}

	a.serveConn(served)
	if !sawSelf {
		t.Error("snapshot taken inside the handler misses its connection")
	}
	if sawOther {
		t.Error("snapshot holds a connection the core never tracked")
	}
	if got := len(a.liveConns()); got != 0 {
		t.Errorf("%d connections tracked after the handler returned, want 0", got)
	}
	if !closedByCore(servedPeer) {
		t.Error("served connection still open after its handler returned")
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	late, latePeer := net.Pipe()
	a.serveConn(late)
	if handled != 1 || len(a.liveConns()) != 0 {
		t.Errorf("connection after Close: %d handler runs, %d tracked; want 1 and 0", handled, len(a.liveConns()))
	}
	if !closedByCore(latePeer) {
		t.Error("connection after Close left open")
	}
}
