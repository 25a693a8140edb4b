// Fixture for the lockio analyzer: conn I/O, gob, unbuffered channel
// ops, and Filter calls while a mutex is held are flagged — including
// through same-package helper calls. Unlock-before-I/O, guard-and-return
// branches, defers, Cond.Wait, selects, and goroutines are not.
package a

import (
	"encoding/gob"
	"net"
	"sync"
)

type filter struct{}

func (filter) Filter(xs []float64) []float64 { return xs }

// engine stands in for fl.Engine: Decide runs the filter and the combiner.
type engine struct{}

func (engine) Decide(xs []float64, version int) []float64 { return xs }

func (engine) Commit(xs []float64) int { return len(xs) }

func (engine) Filter() filter { return filter{} }

type server struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	conn   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	f      filter
	e      engine
	done   chan struct{}
	reply  chan int
	events chan int
	state  int
}

func newServer() *server {
	return &server{
		done:   make(chan struct{}),
		reply:  make(chan int, 8),
		events: make(chan int),
	}
}

func (s *server) connUnderLock(buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Read(buf)  // want `net.Conn Read on "s.conn" while "s.mu" is held`
	s.conn.Write(buf) // want `net.Conn Write on "s.conn" while "s.mu" is held`
}

func (s *server) gobUnderLock(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(v); err != nil { // want `gob Encode while "s.mu" is held`
		return err
	}
	return s.dec.Decode(v) // want `gob Decode while "s.mu" is held`
}

func (s *server) filterUnderRLock(xs []float64) []float64 {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.f.Filter(xs) // want `Filter invocation on "s.f" while "s.rw" is held`
}

func (s *server) roundUnderLock(xs []float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs = s.e.Decide(xs, s.state) // want `Decide invocation on "s.e" while "s.mu" is held`
	_ = s.e.Filter()             // an accessor, not a filter pass
	return s.e.Commit(xs)        // the commit step belongs under the lock
}

func (s *server) chanUnderLock() {
	s.mu.Lock()
	s.events <- 1 // want `send on unbuffered channel "s.events" while "s.mu" is held`
	<-s.done      // want `receive on unbuffered channel "s.done" while "s.mu" is held`
	s.reply <- 1  // buffered: not flagged
	s.mu.Unlock()
}

// helper blocks (gob) without locking; callers holding a lock inherit it.
func (s *server) flushLocked(v any) error {
	return s.enc.Encode(v)
}

// aggregate is blocking transitively through flushLocked.
func (s *server) aggregate(v any) error {
	return s.flushLocked(v)
}

func (s *server) transitive(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aggregate(v) // want `call to aggregate \(call to flushLocked \(gob Encode\)\) while "s.mu" is held`
}

// unlockFirst releases before doing I/O: clean.
func (s *server) unlockFirst(buf []byte) {
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
	s.conn.Write(buf)
}

// guarded: the early-return branch unlocks, the fall-through path keeps
// the lock and must still be flagged.
func (s *server) guarded(buf []byte) {
	s.mu.Lock()
	if s.state == 0 {
		s.mu.Unlock()
		return
	}
	s.conn.Write(buf) // want `net.Conn Write on "s.conn" while "s.mu" is held`
	s.mu.Unlock()
}

// condWait is the sanctioned blocking-while-held pattern: Wait releases
// the mutex while parked.
func (s *server) condWait(c *sync.Cond) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.state == 0 {
		c.Wait()
	}
}

// goroutines do not block the spawner; the literal body runs with its
// own (empty) lock state.
func (s *server) spawn(buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.conn.Write(buf)
	}()
}

// a literal that locks internally is still walked.
func (s *server) literal(buf []byte) func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.conn.Write(buf) // want `net.Conn Write on "s.conn" while "s.mu" is held`
	}
}

// selects are exempt: flagging every select would drown real findings.
func (s *server) selecting() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
	case s.events <- 1:
	default:
	}
}

// closing a channel never blocks.
func (s *server) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.done)
}

func (s *server) suppressed(buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockio fixture exercises the suppression mechanism
	s.conn.Write(buf)
}
