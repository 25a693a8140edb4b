package topology

import (
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/obsv"
)

// TestEdgeCountersOnMetrics runs an edge with a hub through committed
// batches and one forced uplink failure (its first dial is refused), then
// asserts every afl_edge_*{edge="0"} counter equals its Edge.Stats()
// field on a scrape.
func TestEdgeCountersOnMetrics(t *testing.T) {
	root, rootAddr := startRoot(t, RootConfig{
		InitialParams:  initialParams(t),
		Rounds:         100000,
		StalenessLimit: 10,
	}, nil)
	hub := obsv.NewHub(0)
	var dials atomic.Int32
	edge, addr := startEdge(t, EdgeConfig{
		EdgeID:   0,
		RootAddr: rootAddr,
		Server:   edgeServerConfig(t, 2),
		Dial: func(addr string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				return nil, errors.New("forced uplink failure")
			}
			return net.Dial("tcp", addr)
		},
		RetryBaseDelay: 5 * time.Millisecond,
		RetryMaxDelay:  30 * time.Millisecond,
		Obsv:           hub,
	}, nil)
	_, wait := startClients(t, 4, 0, []string{addr})
	waitRootVersion(t, root, 4, 30*time.Second)
	// A mid-run scrape reads Stats() while the uplink is still counting
	// (exercised under -race).
	hub.Registry.Snapshot()
	// Close joins the uplink goroutine, so Stats() is final from here on.
	_ = edge.Close()
	wait()

	st := edge.Stats()
	if st.UplinkFailures < 1 || st.BatchesCommitted == 0 || st.BatchesAcked == 0 {
		t.Fatalf("run did not exercise the uplink: %+v", st)
	}
	counters := hub.Registry.Snapshot().Counters
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Tag.Get("metric") + `{edge="0"}`
		got, ok := counters[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if want := uint64(v.Field(i).Int()); got != want {
			t.Errorf("%s = %d, want %d (Stats mismatch)", name, got, want)
		}
	}
}

// EdgeStats must be a valid mirror source: every field an int tagged with
// a unique afl_edge series name (obsv.Mirror panics otherwise).
func TestEdgeStatMirrorCoversAllStats(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.Mirror(reg, `{edge="0"}`, func() EdgeStats { return EdgeStats{} })
	if got, want := len(reg.Snapshot().Counters), reflect.TypeOf(EdgeStats{}).NumField(); got != want {
		t.Fatalf("mirror registers %d series for %d EdgeStats fields", got, want)
	}
}
