package replica

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/obsv"
)

// Stats must be a valid mirror source: every field an int tagged with a
// unique afl_replica series name (obsv.Mirror panics otherwise), so a new
// counter cannot miss /metrics — RecordsLostOnPromote and Promotions once
// lived only in Stats().
func TestReplicaStatMirrorCoversAllStats(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.Mirror(reg, "", func() Stats { return Stats{} })
	if got, want := len(reg.Snapshot().Counters), reflect.TypeOf(Stats{}).NumField(); got != want {
		t.Fatalf("mirror registers %d series for %d Stats fields", got, want)
	}
	series := replicaSeries()
	for name := range series {
		if !strings.HasPrefix(name, "afl_replica_") {
			t.Errorf("Stats series %s is outside the afl_replica family", name)
		}
	}
	for _, want := range []string{
		"afl_replica_promotions_total",
		"afl_replica_records_lost_on_promote_total",
		"afl_replica_votes_total",
	} {
		if !series[want] {
			t.Errorf("Stats is missing the %s series", want)
		}
	}
}

// replicaSeries is every afl_replica series a node registers: the Stats
// tags plus the gauges the node sets directly.
func replicaSeries() map[string]bool {
	series := map[string]bool{
		"afl_replica_role":             true,
		"afl_replica_epoch":            true,
		"afl_replica_quorum_size":      true,
		"afl_replica_lag_records":      true,
		"afl_replica_election_seconds": true,
	}
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		series[typ.Field(i).Tag.Get("metric")] = true
	}
	return series
}

// The operator docs may only name replica series that exist: a runbook
// that says to watch a series no scrape carries is a silent doc bug.
func TestDocsNameOnlyRegisteredReplicaSeries(t *testing.T) {
	series := replicaSeries()
	token := regexp.MustCompile("`(afl_replica_[a-z_]+)")
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range token.FindAllStringSubmatch(string(text), -1) {
			if !series[m[1]] {
				t.Errorf("%s names %s, which no replica node registers", doc, m[1])
			}
		}
	}
}

// TestPromotionCountersOnMetrics walks a lease-only failover with the
// hub attached and asserts the promotion counters land on a scrape
// exactly as Stats() reports them.
func TestPromotionCountersOnMetrics(t *testing.T) {
	hub := obsv.NewHub(0)
	pNode, err := NewNode(Config{
		NodeID:     0,
		ReplListen: "127.0.0.1:0",
		Lease:      200 * time.Millisecond,
	}, testRoot(t, newFilter(t)))
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, pNode)

	sNode, err := NewNode(Config{
		NodeID:    1,
		Upstreams: []string{pNode.ReplAddr()},
		Lease:     200 * time.Millisecond,
		Obsv:      hub,
	}, testRoot(t, newFilter(t)))
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, sNode)

	waitFor(t, 10*time.Second, "standby attached", func() bool {
		return pNode.Stats().StandbyAttaches >= 1
	})
	if err := pNode.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "standby promoted", func() bool {
		return sNode.Role() == RolePrimary
	})

	st := sNode.Stats()
	snap := hub.Registry.Snapshot()
	if got := snap.Counters["afl_replica_promotions_total"]; got != uint64(st.Promotions) || got != 1 {
		t.Errorf("afl_replica_promotions_total = %d, want %d (and 1)", got, st.Promotions)
	}
	if got := snap.Counters["afl_replica_records_lost_on_promote_total"]; got != uint64(st.RecordsLostOnPromote) {
		t.Errorf("afl_replica_records_lost_on_promote_total = %d, want %d", got, st.RecordsLostOnPromote)
	}
	// A lease-only pair scrapes quorum size 1 — the gauge distinguishes
	// it from a real quorum group on a dashboard.
	if got := snap.Gauges["afl_replica_quorum_size"]; got != 1 {
		t.Errorf("afl_replica_quorum_size = %v, want 1", got)
	}
}
