package transport

import (
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"time"
)

// minTick floors the polling interval of the background tickers (round
// watchdog, lease sweepers). Deriving the interval from a tiny configured
// timeout must not produce a busy ticker: a 1 ms RoundTimeout would
// otherwise poll the server lock a thousand times a second for no gain in
// detection latency worth having.
const minTick = 10 * time.Millisecond

// clampTick returns d floored at minTick.
func clampTick(d time.Duration) time.Duration {
	if d < minTick {
		return minTick
	}
	return d
}

// Acceptor is the connection core of a serving node: Server (clients) and
// topology.Root (edges) are message handlers over it. It owns the
// listener, the set of live connections, the accept loop with one
// goroutine per connection behind a panic guard, the owner's background
// tickers, and the network teardown.
//
// The owner keeps everything that is about its protocol and its state,
// including the shutdown order around Close (stop admitting, wait for the
// in-flight round, write the final checkpoint, then Close the core). A
// recovered panic is reported through onPanic, so the owner counts it in
// its own stats under its own lock.
type Acceptor struct {
	done    <-chan struct{}
	handle  func(net.Conn)
	onPanic func()
	tickers []ticker

	mu       sync.Mutex
	listener net.Listener
	live     map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// ticker is one background loop registered with Every.
type ticker struct {
	interval time.Duration
	where    string
	tick     func(now time.Time)
}

// NewAcceptor returns a core that serves each accepted connection with
// handle and reports each recovered panic to onPanic. done is the owner's
// end-of-deployment signal: it stops the tickers, and an accept error
// after it is a shutdown rather than a failure.
func NewAcceptor(done <-chan struct{}, handle func(net.Conn), onPanic func()) *Acceptor {
	return &Acceptor{done: done, handle: handle, onPanic: onPanic, live: make(map[net.Conn]struct{})}
}

// Every registers tick to run every interval (floored at minTick) while
// Serve runs, until Serve returns or done closes. A panic in one tick is
// recovered and reported; the loop carries on. Call before Serve.
func (a *Acceptor) Every(interval time.Duration, where string, tick func(now time.Time)) {
	a.tickers = append(a.tickers, ticker{interval: clampTick(interval), where: where, tick: tick})
}

// Serve accepts connections on lis until Close, starting the registered
// tickers, and returns once the accept loop, every handler and every
// ticker have exited. It returns nil after Close (or once done has
// closed) and the wrapped accept error when the listener fails on its
// own. A Serve that starts after Close closes lis and returns nil at
// once.
func (a *Acceptor) Serve(lis net.Listener) error {
	a.mu.Lock()
	closed := a.closed
	a.listener = lis
	a.mu.Unlock()
	if closed {
		// Close never saw this listener: tear it down here instead of
		// blocking in Accept on a deployment that is already over.
		_ = lis.Close()
		return nil
	}

	stop := make(chan struct{})
	for _, t := range a.tickers {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.runTicker(t, stop)
		}()
	}
	var err error
	for {
		conn, aerr := lis.Accept()
		if aerr != nil {
			if !a.shutDown() {
				err = fmt.Errorf("transport: accept: %w", aerr)
			}
			break
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.serveConn(conn)
		}()
	}
	close(stop)
	a.wg.Wait()
	return err
}

// shutDown reports whether the deployment ended or Close ran.
func (a *Acceptor) shutDown() bool {
	select {
	case <-a.done:
		return true
	default:
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// serveConn runs the owner's handler on one connection: tracked for
// teardown, closed when the handler returns, and any panic in it isolated
// to this connection. A connection that arrives after Close is dropped
// unhandled.
func (a *Acceptor) serveConn(conn net.Conn) {
	defer a.guard("connection handler")
	defer conn.Close()
	a.mu.Lock()
	closed := a.closed
	if !closed {
		a.live[conn] = struct{}{}
	}
	a.mu.Unlock()
	if closed {
		return
	}
	defer func() {
		a.mu.Lock()
		delete(a.live, conn)
		a.mu.Unlock()
	}()
	a.handle(conn)
}

// runTicker drives one registered ticker until stop or done closes. Each
// tick runs behind the panic guard, so a panic (say, a forced round's
// misbehaving combiner) cannot kill the loop with it.
func (a *Acceptor) runTicker(t ticker, stop <-chan struct{}) {
	tk := time.NewTicker(t.interval)
	defer tk.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-stop:
			return
		case now := <-tk.C:
			func() {
				defer a.guard(t.where)
				t.tick(now)
			}()
		}
	}
}

// guard recovers a panic, logs it with its stack and reports it to
// onPanic. A malformed or adversarial message that panics one goroutine
// must take down that goroutine only, never the deployment. It must be
// the deferred call itself, and the panicking goroutine must not hold the
// owner's lock, which onPanic takes.
func (a *Acceptor) guard(where string) {
	if r := recover(); r != nil {
		a.onPanic()
		log.Printf("transport: recovered %s panic: %v\n%s", where, r, debug.Stack())
	}
}

// Addr returns the listener address (empty before Serve).
func (a *Acceptor) Addr() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.listener == nil {
		return ""
	}
	return a.listener.Addr().String()
}

// liveConns returns a snapshot of the tracked connections.
func (a *Acceptor) liveConns() []net.Conn {
	a.mu.Lock()
	defer a.mu.Unlock()
	open := make([]net.Conn, 0, len(a.live))
	for conn := range a.live {
		open = append(open, conn)
	}
	return open
}

// Close tears down the listener and every live connection exactly once,
// unblocking Serve; later calls are no-ops returning nil, so a Close after
// a drain or a fence does not report a spuriously double-closed listener.
func (a *Acceptor) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	lis := a.listener
	a.mu.Unlock()

	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, conn := range a.liveConns() {
		_ = conn.Close()
	}
	return err
}
