package core

import (
	"math"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// TestReferenceMeanTieBreaksTowardLowerStaleness pins which estimate a
// history-less staleness group is scored against. Two groups with history
// are primed to exact means (0,0) and (10,0); three updates then arrive in
// a group without history, and their scores say which estimate served as
// the reference. With both at the same distance the lower staleness wins;
// before the fix the winner was whichever group Go's map iteration
// visited first, so every case runs the same batch 50 times.
func TestReferenceMeanTieBreaksTowardLowerStaleness(t *testing.T) {
	// distances 1,2,4 from (0,0) and 9,8,6 from (10,0), over the median.
	fromLow := []float64{1.0 / 2, 1, 4.0 / 2}
	fromHigh := []float64{9.0 / 8, 1, 6.0 / 8}
	cases := []struct {
		name         string
		low, high, k int
		want         []float64
	}{
		{"tie at distance 1", 0, 2, 1, fromLow},
		{"tie at distance 2", 1, 5, 3, fromLow},
		{"higher neighbour is nearer", 0, 3, 2, fromHigh},
		{"lower neighbour is nearer", 0, 3, 1, fromLow},
	}
	for _, tc := range cases {
		for run := 0; run < 50; run++ {
			f := mustNew(t, DefaultConfig())
			prime := []*fl.Update{
				{ClientID: 0, Staleness: tc.low, Delta: []float64{0.1, 0}},
				{ClientID: 1, Staleness: tc.low, Delta: []float64{-0.1, 0}},
				{ClientID: 2, Staleness: tc.high, Delta: []float64{10.5, 0}},
				{ClientID: 3, Staleness: tc.high, Delta: []float64{9.5, 0}},
			}
			if _, err := f.Filter(prime, 1); err != nil { // below MinBatch: folded wholesale
				t.Fatal(err)
			}
			batch := []*fl.Update{
				{ClientID: 4, Staleness: tc.k, Delta: []float64{1, 0}},
				{ClientID: 5, Staleness: tc.k, Delta: []float64{2, 0}},
				{ClientID: 6, Staleness: tc.k, Delta: []float64{4, 0}},
			}
			res, err := f.Filter(batch, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.want {
				if math.Float64bits(res.Scores[i]) != math.Float64bits(want) {
					t.Fatalf("%s, run %d: scores %v, want %v", tc.name, run, res.Scores, tc.want)
				}
			}
		}
	}
}
