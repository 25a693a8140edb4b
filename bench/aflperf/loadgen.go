package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// The load generator. 64 client identities are 64 persistent sockets
// (client identity is per connection in this protocol); a client has at
// most one request in flight, takes its turn in strict rotation (the
// longest-idle client sends next) and replays its own pre-generated
// deltas. Two engines drive them:
//
//   - the closed loop (warm-up, saturation): numDrivers goroutines, each
//     sending its next request as soon as the previous reply is read;
//   - the open loop (paced phase): one thread that spins on the clock,
//     writes each request itself the moment it falls due and polls the
//     sockets in flight for their replies, so that no goroutine wake-up
//     sits between a due time and the wire.

// genClient is one identity's generator-side state. Exactly one
// goroutine touches it at a time (it is either in the idle queue or held
// by one driver), so its fields need no locking.
type genClient struct {
	*wireClient
	role role
	home int
	// frames are the pre-encoded binary update frames, one per delta
	// variant (binary codec); deltas the raw vectors (gob codec).
	frames  [][]byte
	deltas  [][]float64
	variant int
	// seen is the newest model version this client has been sent; lag
	// how far its BaseVersion trails it.
	seen, lag int
	// readyAt (wall ns) is when a NACKed client may send again: the
	// generator honours RetryAfter.
	readyAt int64

	// The request in flight: when it went out, the newest version its
	// home server had shown anyone by then, and its record (paced phase).
	sent, before int64
	rec          *sendRec
}

// counts tallies one phase. A refused request is a poisoned client's
// update answered with a NACK: the correct outcome, not a failure. A
// request fails when an honest client is NACKed, when it goes unanswered
// or unsent, or when its connection breaks.
type counts struct {
	Attempted, Succeeded, Refused, Failed int64
}

func (c *counts) add(o counts) {
	c.Attempted += o.Attempted
	c.Succeeded += o.Succeeded
	c.Refused += o.Refused
	c.Failed += o.Failed
}

// sendRec is one request of the paced phase. Times are wall-clock ns so
// they join against the commit tap's stamps from the other process.
type sendRec struct {
	Client   int32
	Gob      bool
	Poisoned bool
	// Answered is true when a reply was read at all; OK when it was a
	// plain task, not a NACK.
	Answered, OK bool
	// NoRound is true when the reply carried the same model version the
	// generator had last seen from that server: no round ran while the
	// request was being served, so its ack time is pure ingest.
	NoRound            bool
	Base               int64
	Due, Sent, Replied int64
}

// fleet is the connected client population.
type fleet struct {
	w       *workload
	clients []*genClient
	// idle is the rotation: a FIFO of clients not in flight.
	idle chan *genClient
	// latest is the newest version seen per home server.
	latest []atomic.Int64
	// firstErr keeps the first I/O error for the report, nackErr the
	// first NACK of an honest client.
	errMu             sync.Mutex
	firstErr, nackErr error
}

// numDrivers is the number of closed-loop driver goroutines, and so the
// number of requests in flight while saturating. It is a constant, not
// nproc (2 on the reference box): two in flight leave the server 41 %
// busy and measure the kernel's wake-up path (23 k updates/s at 36 us of
// server CPU each, spread over ten seeds 11.7 %); eight keep the whole
// box busy (45 k/s at 21 us, spread 6.7 %).
// bench/results/drivers_ab.json keeps both sets of runs.
const numDrivers = 8

// connectFleet dials every client to its home address, sends the Hellos
// and reads the first task on every socket.
func connectFleet(w *workload, in *fleetInputs, addrs []string) (*fleet, error) {
	f := &fleet{
		w:      w,
		idle:   make(chan *genClient, numClients),
		latest: make([]atomic.Int64, len(addrs)),
	}
	for id := 0; id < numClients; id++ {
		home := id % len(addrs)
		conn, err := net.DialTimeout("tcp", addrs[home], 5*time.Second)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("client %d: dial: %w", id, err)
		}
		wc, err := newWireClient(conn, id, w.Dim, w.codecOf(id))
		if err != nil {
			_ = conn.Close()
			f.close()
			return nil, err
		}
		c := &genClient{wireClient: wc, role: w.roleOf(id), home: home, lag: in.lag[id], deltas: in.deltas[id]}
		f.clients = append(f.clients, c)
		if c.codec == transport.CodecBinary {
			for _, d := range c.deltas {
				c.frames = append(c.frames, encodeUpdateFrame(d))
			}
		}
	}
	for _, c := range f.clients {
		rep, err := c.readReply()
		if err != nil || !rep.HasTask || rep.Nack != 0 {
			f.close()
			return nil, fmt.Errorf("client %d: first task: %+v, %v", c.id, rep, err)
		}
		c.seen = rep.Version
		f.idle <- c
	}
	return f, nil
}

func (f *fleet) close() {
	for _, c := range f.clients {
		c.close()
	}
}

func (f *fleet) armAll(phase time.Duration) {
	for _, c := range f.clients {
		c.arm(phase)
	}
}

// wireBytes is the exact byte count that crossed the generator's sockets.
func (f *fleet) wireBytes() int64 {
	var n int64
	for _, c := range f.clients {
		n += c.conn.bytes
	}
	return n
}

func (f *fleet) noteErr(err error) {
	f.errMu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.errMu.Unlock()
}

func (f *fleet) dead() bool {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr != nil
}

// tryTake returns the longest-idle client that is allowed to send at
// now, or nil when every client is in flight or waiting out a NACK.
func (f *fleet) tryTake(now int64) *genClient {
	for n := len(f.idle); n > 0; n-- {
		select {
		case c := <-f.idle:
			if c.readyAt <= now {
				return c
			}
			f.idle <- c
		default:
			return nil
		}
	}
	return nil
}

// take waits for a client, or returns nil when a connection has failed.
func (f *fleet) take() *genClient {
	for {
		if c := f.tryTake(time.Now().UnixNano()); c != nil {
			return c
		}
		if f.dead() {
			return nil
		}
		runtime.Gosched()
	}
}

// send puts c's next update on the wire: the first half of an exchange.
// due is the request's scheduled time and rec its record in the paced
// phase (0 and nil in a closed loop). With block false a binary frame
// the socket does not take at once is finished by c.poll.
func (f *fleet) send(c *genClient, due int64, rec *sendRec, block bool) error {
	base := max(c.seen-c.lag, 0)
	c.before = f.latest[c.home].Load()
	v := c.variant
	c.variant = (v + 1) % len(c.deltas)
	c.rec = rec
	c.sent = time.Now().UnixNano()
	if rec != nil {
		*rec = sendRec{
			Client: int32(c.id), Gob: c.codec == transport.CodecGob, Poisoned: c.role.poisoned(),
			Base: int64(base), Due: due, Sent: c.sent,
		}
	}
	switch {
	case c.codec == transport.CodecGob:
		return c.sendGob(c.deltas[v], base)
	case block:
		return c.sendFrame(c.frames[v], base)
	}
	return c.start(c.frames[v], base)
}

// finish is the second half of an exchange: given the reply to c's
// request in flight, or the error that ended it, it tallies the outcome
// and returns c to the rotation unless its connection died.
func (f *fleet) finish(c *genClient, rep reply, err error, tally *counts) {
	replied := time.Now().UnixNano()
	tally.Attempted++
	rec := c.rec
	if rec != nil {
		rec.Replied = replied
	}
	if err == nil && !rep.HasTask {
		err = fmt.Errorf("server ended the conversation (done=%v goodbye=%v)", rep.Done, rep.Goodbye)
	}
	if err != nil {
		// The connection is unusable: the client leaves the rotation and
		// the request counts as failed.
		tally.Failed++
		f.noteErr(fmt.Errorf("client %d: %w", c.id, err))
		return
	}
	c.seen = rep.Version
	for {
		cur := f.latest[c.home].Load()
		if int64(rep.Version) <= cur || f.latest[c.home].CompareAndSwap(cur, int64(rep.Version)) {
			break
		}
	}
	if rec != nil {
		rec.Answered = true
	}
	switch {
	case rep.Nack == 0:
		tally.Succeeded++
		if rec != nil {
			rec.OK = true
			rec.NoRound = int64(rep.Version) == c.before
		}
	case c.role.poisoned():
		tally.Refused++
		c.readyAt = replied + int64(rep.RetryAfter)
	default:
		tally.Failed++
		c.readyAt = replied + int64(rep.RetryAfter)
		f.noteNack(c, rep)
	}
	f.idle <- c
}

// noteNack keeps the first honest NACK as the run's reported problem
// without taking the fleet out of service.
func (f *fleet) noteNack(c *genClient, rep reply) {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	if f.nackErr == nil {
		f.nackErr = fmt.Errorf("honest client %d NACKed: %v", c.id, rep.Nack)
	}
}

// closedLoop runs numDrivers drivers flat out until stop is set: each
// takes the longest-idle client, sends its next request and reads the
// reply before taking the next.
func (f *fleet) closedLoop(stop *atomic.Bool) counts {
	var total counts
	var mu sync.Mutex
	var wg sync.WaitGroup
	for d := 0; d < numDrivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine counts
			for !stop.Load() {
				c := f.take()
				if c == nil {
					break
				}
				var rep reply
				err := f.send(c, 0, nil, true)
				if err == nil {
					rep, err = c.readReply()
				}
				f.finish(c, rep, err, &mine)
			}
			mu.Lock()
			total.add(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// poissonSchedule returns the due times (wall ns) of an open-loop phase:
// exponential gaps at rate per second from start, for span.
func poissonSchedule(seed int64, rate float64, start int64, span time.Duration) []int64 {
	r := randx.New(seed)
	var due []int64
	t := float64(start)
	end := float64(start + int64(span))
	for {
		t += r.ExpFloat64() / rate * 1e9
		if t >= end {
			return due
		}
		due = append(due, int64(t))
	}
}

// openLoop plays the schedule on the calling goroutine, which it locks
// to its OS thread: it spins on the clock, writes each request itself
// the moment it falls due and, between due times, moves every request in
// flight along (the rest of a large frame out, what has arrived of the
// reply in) without ever blocking on one of them. It never sleeps and
// never hands a request to another goroutine: on the reference box (a
// virtualised guest whose idle CPUs are halted) a sleeping thread wakes
// 80 us late at the median and 0.4 to 2 ms late at p99, nanosleep or
// runtime timer alike, and waking a parked goroutine costs 110 us at
// the median, either of which is a whole inter-arrival gap or more.
//
// Every turn of the loop ends in sched_yield, so the spinning thread
// never keeps a CPU from a server thread that wants it: without the
// yield the kernel lets a busy thread finish its 3 ms slice before a
// thread woken onto the same CPU runs, and a tenth of all requests took
// 2 to 4 ms to answer.
//
// A request that falls due while every client is in flight goes out
// late, and because latency is counted from the due time that wait is
// charged to the server, as a real arrival's would be.
func (f *fleet) openLoop(due []int64) ([]sendRec, counts) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	recs := make([]sendRec, len(due))
	var tally counts
	flying := make([]*genClient, 0, numClients)
	for next := 0; next < len(due) || len(flying) > 0; {
		now := time.Now().UnixNano()
		for next < len(due) && due[next] <= now {
			c := f.tryTake(now)
			if c == nil {
				if len(flying) > 0 || !f.dead() {
					break // wait for a reply, or for a NACKed client's RetryAfter
				}
				// Every connection has failed. Unsent: attempted and
				// failed, with no latency.
				tally.add(counts{Attempted: 1, Failed: 1})
				recs[next] = sendRec{Client: -1, Due: due[next]}
				next++
				continue
			}
			if err := f.send(c, due[next], &recs[next], false); err != nil {
				f.finish(c, reply{}, err, &tally)
			} else {
				flying = append(flying, c)
			}
			next++
			now = time.Now().UnixNano()
		}
		_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		for i := 0; i < len(flying); {
			c := flying[i]
			rep, done, err := c.poll()
			if !done && err == nil {
				if now-c.sent < int64(ioTimeout) {
					i++
					continue
				}
				err = errUnanswered
			}
			f.finish(c, rep, err, &tally)
			flying[i] = flying[len(flying)-1]
			flying = flying[:len(flying)-1]
		}
	}
	return recs, tally
}

// msBetween converts a wall-ns interval to milliseconds.
func msBetween(from, to int64) float64 { return float64(to-from) / 1e6 }
