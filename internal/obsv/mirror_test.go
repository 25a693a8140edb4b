package obsv

import (
	"strings"
	"testing"
)

type mirrored struct {
	Rounds int `metric:"afl_m_rounds_total"`
	// Split multi-name declarations: one tag per field.
	Accepted int `metric:"afl_m_accepted_total"`
	Rejected int `metric:"afl_m_rejected_total"`
	Clients  int `metric:"afl_m_clients_connected"`
}

func TestMirrorScrapeEqualsRead(t *testing.T) {
	r := NewRegistry()
	st := mirrored{}
	Mirror(r, `{edge="3"}`, func() mirrored { return st })

	// Registered at construction, before any read: every series is 0.
	snap := r.Snapshot()
	if len(snap.Counters) != 4 {
		t.Fatalf("registered %d counters, want 4: %v", len(snap.Counters), snap.Counters)
	}
	for name, v := range snap.Counters {
		if v != 0 || !strings.HasSuffix(name, `{edge="3"}`) {
			t.Errorf("%s = %d, want 0 under the label suffix", name, v)
		}
	}

	st = mirrored{Rounds: 7, Accepted: 40, Rejected: 2, Clients: 11}
	want := map[string]uint64{
		`afl_m_rounds_total{edge="3"}`:      7,
		`afl_m_accepted_total{edge="3"}`:    40,
		`afl_m_rejected_total{edge="3"}`:    2,
		`afl_m_clients_connected{edge="3"}`: 11,
	}
	for name, v := range r.Snapshot().Counters {
		if want[name] != v {
			t.Errorf("%s = %d, want %d", name, v, want[name])
		}
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "afl_m_accepted_total{edge=\"3\"} 40\n") {
		t.Errorf("rendered output lacks the mirrored value:\n%s", sb.String())
	}
}

func TestMirrorPanicsOnBadStruct(t *testing.T) {
	type untagged struct {
		Rounds int `metric:"afl_x_total"`
		Lost   int
	}
	type notInt struct {
		Share float64 `metric:"afl_share"`
	}
	type badPrefix struct {
		Rounds int `metric:"rounds_total"`
	}
	type duplicate struct {
		Sent  int `metric:"afl_sent_total"`
		Acked int `metric:"afl_sent_total"`
	}
	for _, tc := range []struct {
		name, field string
		register    func(*Registry)
	}{
		{"untagged", "Lost", func(r *Registry) { Mirror(r, "", func() untagged { return untagged{} }) }},
		{"not int", "Share", func(r *Registry) { Mirror(r, "", func() notInt { return notInt{} }) }},
		{"bad prefix", "Rounds", func(r *Registry) { Mirror(r, "", func() badPrefix { return badPrefix{} }) }},
		{"duplicate", "Acked", func(r *Registry) { Mirror(r, "", func() duplicate { return duplicate{} }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "field") || !strings.Contains(msg, tc.field) {
					t.Errorf("panic = %q, want one naming field %s", msg, tc.field)
				}
			}()
			tc.register(NewRegistry())
		})
	}
}
