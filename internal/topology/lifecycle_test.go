package topology

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// A Serve that starts after Close returns promptly, and the address it
// was handed no longer accepts connections — for the flat server, the
// edge (through its client-facing server) and the root alike.
func TestServeAfterCloseReturns(t *testing.T) {
	params := make([]float64, rootTestDim)
	cases := []struct {
		name  string
		build func(t *testing.T) (serve func(net.Listener) error, closeFn func() error)
	}{
		{"server", func(t *testing.T) (func(net.Listener) error, func() error) {
			s, err := transport.NewServer(transport.ServerConfig{
				InitialParams: params, AggregationGoal: 1, Rounds: 1,
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return s.Serve, s.Close
		}},
		{"edge", func(t *testing.T) (func(net.Listener) error, func() error) {
			e, err := NewEdge(EdgeConfig{
				RootAddr: "127.0.0.1:1",
				Server:   transport.ServerConfig{InitialParams: params, AggregationGoal: 1, Rounds: 1},
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return e.Serve, e.Close
		}},
		{"root", func(t *testing.T) (func(net.Listener) error, func() error) {
			r, err := NewRoot(RootConfig{InitialParams: params, Rounds: 1}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return r.Serve, r.Close
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serve, closeFn := c.build(t)
			if err := closeFn(); err != nil {
				t.Fatalf("close: %v", err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close() // unblocks a Serve stuck in Accept
			addr := lis.Addr().String()
			serveErr := make(chan error, 1)
			go func() { serveErr <- serve(lis) }()
			select {
			case err := <-serveErr:
				if err != nil {
					t.Errorf("serve after close: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("serve after close still blocked after 5s")
			}
			if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				conn.Close()
				t.Error("listener still accepts connections after Close and Serve")
			}
		})
	}
}

// gateFilter accepts everything, but its first call blocks until release
// closes: the batch that makes it holds the root's round slot meanwhile.
type gateFilter struct {
	entered, release chan struct{}
	calls            int
}

func newGateFilter() *gateFilter {
	return &gateFilter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFilter) Name() string { return "gate" }

func (g *gateFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	g.calls++ // rounds are serialized by the round slot
	if g.calls == 1 {
		close(g.entered)
		<-g.release
	}
	res := fl.FilterResult{Decisions: make([]fl.Decision, len(updates)), Scores: make([]float64, len(updates))}
	for i := range res.Decisions {
		res.Decisions[i] = fl.Accept
	}
	return res, nil
}

// Once Close (or Fence) has begun, the root applies no batch: a batch
// queued behind the in-flight one is dropped unanswered, so the final
// checkpoint holds the live version and no edge is acked for work a
// restarted (or newly promoted) root never sees. The in-flight batch,
// which held the round slot before Close began, still commits. The
// assertions hold whichever of Close and the queued handler wins the slot
// once the in-flight batch lets go.
func TestRootStopDropsQueuedBatch(t *testing.T) {
	for _, c := range []struct {
		name    string
		stop    func(*Root)
		durable bool
	}{
		{"close", func(r *Root) { _ = r.Close() }, true},
		{"fence", (*Root).Fence, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "root.ckpt")
			cfg := RootConfig{
				InitialParams:   make([]float64, rootTestDim),
				Rounds:          10,
				CheckpointPath:  ckpt,
				CheckpointEvery: 100,
			}
			gate := newGateFilter()
			root, err := NewRoot(cfg, gate, nil)
			if err != nil {
				t.Fatal(err)
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- root.Serve(lis) }()
			addr := lis.Addr().String()

			inflight, queued := dialRootT(t, addr), dialRootT(t, addr)
			inflight.hello(1, 1)
			queued.hello(2, 1)
			send := func(e *scriptedEdge, clientID int) {
				batch := &transport.BatchMsg{BatchID: 1, Updates: []*fl.Update{testUpdate(clientID, 1)}}
				if err := e.uc.WriteEdge(&transport.EdgeMsg{Batch: batch}); err != nil {
					t.Fatalf("write batch: %v", err)
				}
			}
			send(inflight, 1)
			<-gate.entered // the in-flight batch holds the round slot
			send(queued, 2)
			// Give the queued handler time to reach the round slot. The
			// outcome must not depend on whether it got there.
			time.Sleep(20 * time.Millisecond)

			stopped := make(chan struct{})
			go func() {
				c.stop(root)
				close(stopped)
			}()
			// Done fires in the same critical section that marks the root
			// closed, so from here on Close (or Fence) has begun.
			<-root.Done()
			close(gate.release)
			<-stopped
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}

			if reply, err := queued.uc.ReadRoot(); err == nil {
				t.Errorf("queued edge got a reply after %s began: ack %d, version %d", c.name, reply.Ack, root.Version())
			}
			if got := root.Version(); got != 1 {
				t.Errorf("version after %s = %d, want 1 (only the in-flight batch)", c.name, got)
			}
			if !c.durable {
				return
			}
			restarted, err := NewRoot(cfg, newGateFilter(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := restarted.Version(), root.Version(); got != want {
				t.Errorf("final checkpoint at version %d, live root at %d", got, want)
			}
		})
	}
}
