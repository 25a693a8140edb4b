package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

var updateChar = flag.Bool("update-char", false, "rewrite testdata/filter_char.sha256 from the current filter")

const charGolden = "testdata/filter_char.sha256"

// The characterisation schedule: one seeded sequence of arrival batches
// fed to a fresh filter per configuration. It is the net under every
// refactor of Filter's working set — the hash covers each round's
// decisions, score bits and SnapshotState bytes (the snapshot carries the
// RNG stream position and the empty estimators created for staleness keys
// seen for the first time) — and it only reads what the filter exposes, so
// the same file runs at any commit.
const (
	charDim   = 8
	charOmega = 32
)

// charBuilder builds one schedule. Every client keeps its ID across
// rounds, so amnesty credits earned in one round are spent in the next.
type charBuilder struct {
	r      *rand.Rand
	rounds [][]*fl.Update
	cur    []*fl.Update
}

// charCenter is a staleness group's benign center: drift is smooth in
// staleness, as model drift is.
func charCenter(k int) []float64 {
	c := make([]float64, charDim)
	for j := range c {
		c[j] = 0.5*float64(k) + 0.1*float64(j)
	}
	return c
}

// honest adds count benign updates to staleness group k.
func (b *charBuilder) honest(k, count int, spread float64) {
	for j := 0; j < count; j++ {
		delta := charCenter(k)
		vecmath.Add(delta, delta, randx.NormalVector(b.r, charDim, 0, spread))
		b.cur = append(b.cur, &fl.Update{ClientID: 100*k + j, Staleness: k, Delta: delta, NumSamples: 10})
	}
}

// gd adds count gradient-reversal attackers (IDs from base) to group k.
func (b *charBuilder) gd(base, k, count int) {
	for j := 0; j < count; j++ {
		delta := charCenter(k)
		for i := range delta {
			delta[i] = -4 * (delta[i] + 1)
		}
		vecmath.Add(delta, delta, randx.NormalVector(b.r, charDim, 0, 0.05))
		b.cur = append(b.cur, &fl.Update{ClientID: base + j, Staleness: k, Delta: delta, NumSamples: 10})
	}
}

// collude adds one sender per listed group (IDs from base), all
// transmitting the same crafted vector: copies of it, as separate
// connections deliver them, not one shared slice.
func (b *charBuilder) collude(base int, vec []float64, groups ...int) {
	for j, k := range groups {
		b.cur = append(b.cur, &fl.Update{ClientID: base + j, Staleness: k, Delta: vecmath.Clone(vec), NumSamples: 10})
	}
}

func (b *charBuilder) end() {
	b.rounds = append(b.rounds, b.cur)
	b.cur = nil
}

// charSchedule returns the rounds; it is regenerated for every run so no
// two runs share a delta slice. identicalRound leaves out round 6, see
// TestFilterCharacterisation.
func charSchedule(identicalRound bool) [][]*fl.Update {
	b := &charBuilder{r: randx.New(20240923)}

	// 1: the first round of the filter's life, below MinBatch for both K:
	// the pooled batch mean is the only reference there is.
	b.honest(0, 1, 0.2)
	b.honest(2, 1, 0.2)
	b.honest(5, 1, 0.2)
	b.end()

	// 2: a later round in which still no group has two observations —
	// eight groups, one update each — now large enough to be clustered.
	for k := 0; k < 8; k++ {
		b.honest(k, 1, 0.2)
	}
	b.end()

	// 3: one Ω. Groups 0, 2 and 5 have two observations by now, the rest
	// one: 1 and 3 sit between two groups with history at equal distance
	// (the k−1 / k+1 tie), 4 has its only near neighbour above.
	// Gradient-reversal attackers ride group 0.
	b.honest(0, 7, 0.2)
	b.honest(1, 6, 0.2)
	b.honest(2, 6, 0.2)
	b.honest(3, 5, 0.2)
	b.honest(4, 4, 0.2)
	b.gd(9000, 0, 4)
	b.end()

	// 4: the same attackers again: whoever was rejected in round 3 holds
	// an amnesty credit now. Group 10 appears with only lower neighbours.
	b.honest(0, 8, 0.2)
	b.honest(1, 8, 0.2)
	b.honest(2, 6, 0.2)
	b.honest(10, 6, 0.2)
	b.gd(9000, 0, 4)
	b.end()

	// 5: colluders: three senders of one vector inside group 1, and the
	// same vector again from groups 2 and 3. Group 9 is new and its nearest
	// neighbour with history is above it (10); group 20 is new and far.
	crafted := vecmath.Scaled(-2, charCenter(1))
	b.honest(1, 8, 0.2)
	b.honest(2, 7, 0.2)
	b.honest(3, 6, 0.2)
	b.honest(9, 5, 0.2)
	b.collude(8000, crafted, 1, 1, 1, 2, 3)
	b.honest(20, 1, 0.2)
	b.end()

	// 6: every sender transmits the same vector: one score, one cluster.
	if identicalRound {
		b.collude(8100, charCenter(2), 2, 2, 2, 2, 2, 2, 2, 2)
		b.end()
	}

	// 7: a clean Ω from one group: k-means still splits it K ways, the
	// guard accepts it all.
	b.honest(2, charOmega, 0.3)
	b.end()

	// 8: three rounds below MinBatch, which are folded whatever K is, so
	// the last one meets the tie on every configuration: 31 is new, 30 and
	// 32 both have history by then.
	b.honest(30, 2, 0.2)
	b.gd(9000, 1, 1)
	b.end()
	b.honest(32, 2, 0.2)
	b.honest(30, 1, 0.2)
	b.end()
	b.honest(31, 2, 0.2)
	b.honest(33, 1, 0.2)
	b.end()

	// 9: a saturated server's drain, 2.4 Ω: attackers in two groups,
	// colluders within and across groups, and two lone updates that have a
	// history-less group even under the batch estimator: 4 between 3 and 5
	// (the tie), 11 just under 12.
	for _, k := range []int{0, 1, 2, 3, 5, 6, 7} {
		b.honest(k, 7, 0.25)
	}
	b.honest(4, 1, 0.25)
	b.honest(8, 6, 0.25)
	b.honest(11, 1, 0.25)
	b.honest(12, 6, 0.25)
	b.gd(9000, 0, 5)
	b.collude(8000, crafted, 5, 5, 6, 7)
	b.honest(20, 3, 0.25)
	b.gd(9100, 20, 2)
	b.end()

	// 10, 11: one Ω after the flood, twice: whoever is rejected in one
	// round spends the credit in the next.
	for i := 0; i < 2; i++ {
		b.honest(0, 9, 0.2)
		b.honest(4, 9, 0.2)
		b.honest(8, 9, 0.2)
		b.gd(9000, 0, 5)
		b.end()
	}
	return b.rounds
}

// charCoverage names what a run of the schedule exercised; every
// configuration must hit every label that applies to it.
type charCoverage map[string]bool

// referenceKind reports, from the observation counts the reference rule
// sees, which estimate group k is scored against.
func referenceKind(counts map[int]int, k int) string {
	if counts[k] >= 2 {
		return "own"
	}
	best, kind := -1, "pooled"
	for kk, c := range counts {
		if c < 2 {
			continue
		}
		d, side := kk-k, "above"
		if d < 0 {
			d, side = -d, "below"
		}
		switch {
		case best == -1 || d < best:
			best, kind = d, side
		case d == best:
			kind = "tie"
		}
	}
	return kind
}

// charObserver collects the per-round telemetry coverage is judged on.
type charObserver struct {
	events []fl.DecisionEvent
	round  fl.FilterRoundEvent
}

func (o *charObserver) ObserveDecision(ev fl.DecisionEvent)       { o.events = append(o.events, ev) }
func (o *charObserver) ObserveFilterRound(ev fl.FilterRoundEvent) { o.round = ev }

// runChar feeds the schedule to a fresh filter and returns the hash and,
// when observed, the coverage labels.
func runChar(t *testing.T, cfg Config, observed bool) (string, charCoverage) {
	t.Helper()
	f := mustNew(t, cfg)
	obs := &charObserver{}
	if observed {
		f.SetObserver(obs)
	}
	cov := charCoverage{}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for r, batch := range charSchedule(cfg.Normalization != NormalizeGroups) {
		// What the reference rule will see: persistent counts, or under
		// the batch estimator this round's membership.
		counts := map[int]int{}
		for _, u := range batch {
			if cfg.Estimator == EstimatorBatch {
				counts[u.Staleness]++
			} else if _, ok := counts[u.Staleness]; !ok {
				counts[u.Staleness] = 0
			}
		}
		for k, est := range f.groups {
			counts[k] = est.Count()
		}
		for _, u := range batch {
			kind := referenceKind(counts, u.Staleness)
			if kind == "pooled" && r > 0 {
				kind = "pooled-later"
			}
			cov["ref:"+kind] = true
		}
		cov[fmt.Sprintf("batch:%d", len(batch))] = true

		obs.events = obs.events[:0]
		res, err := f.Filter(batch, r+1)
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		if len(res.Decisions) != len(batch) || len(res.Scores) != len(batch) {
			t.Fatalf("round %d: %d decisions, %d scores for %d updates", r+1, len(res.Decisions), len(res.Scores), len(batch))
		}
		// Eq. 7's literal denominator is summed over the live groups, and
		// before Filter had a slot table that sum ran in map order: with
		// three or more live groups the last bits of a score were not a
		// function of the inputs. Those scores enter the hash at float32
		// precision; everything else is bit-exact.
		coarse := cfg.Normalization == NormalizeGroups && len(counts) >= 3
		put(uint64(len(batch)))
		for i, d := range res.Decisions {
			put(uint64(d))
			if coarse {
				put(uint64(math.Float32bits(float32(res.Scores[i]))))
			} else {
				put(math.Float64bits(res.Scores[i]))
			}
			switch d {
			case fl.Reject:
				cov["reject"] = true
			case fl.Defer:
				cov["defer"] = true
			}
		}
		snap, err := f.SnapshotState()
		if err != nil {
			t.Fatalf("round %d: snapshot: %v", r+1, err)
		}
		put(uint64(len(snap)))
		h.Write(snap)

		if !observed {
			continue
		}
		if obs.round.Wholesale {
			cov["wholesale"] = true
			continue
		}
		clusters := map[int]bool{}
		flagged := false
		for i, ev := range obs.events {
			clusters[ev.Cluster] = true
			if ev.Amnesty {
				cov["amnesty"] = true
			}
			if ev.Amnesty || ev.Decision != fl.Accept {
				flagged = true
			}
			if ev.Decision != res.Decisions[i] {
				t.Fatalf("round %d: event %d says %v, result %v", r+1, i, ev.Decision, res.Decisions[i])
			}
		}
		switch {
		case len(clusters) == 1:
			cov["one-cluster"] = true
		case !flagged:
			cov["guard-accepts-all"] = true
		}
	}
	return hex.EncodeToString(h.Sum(nil)), cov
}

// TestFilterCharacterisation pins Filter's observable behaviour — verdicts,
// score bits, estimator state, RNG consumption — on the schedule above for
// every estimator × normalization × K. Bless an intended change with
// -update-char and say why in the PR.
//
// The hashes were recorded on the map-based Filter that preceded the slot
// table, which is why NormalizeGroups runs without round 6: there each
// update's Eq. 7 denominator was summed in its own map iteration order, so
// identical vectors got scores differing in the last bits, k-means split
// that noise and the verdicts changed from run to run.
// TestNormalizeGroupsIsDeterministic covers that round instead.
func TestFilterCharacterisation(t *testing.T) {
	golden := map[string]string{}
	if raw, err := os.ReadFile(charGolden); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if hash, name, ok := strings.Cut(line, "  "); ok {
				golden[name] = hash
			}
		}
	} else if !*updateChar {
		t.Fatal(err)
	}

	common := []string{
		"ref:pooled", "ref:pooled-later", "ref:own", "ref:below", "ref:above", "ref:tie",
		fmt.Sprintf("batch:%d", charOmega), "batch:77",
		"wholesale", "guard-accepts-all", "amnesty", "reject",
	}
	got := map[string]string{}
	for _, est := range []string{EstimatorMA, EstimatorBatch, EstimatorEWMA} {
		for _, norm := range []string{NormalizeGroupRMS, NormalizeBatch, NormalizeGroups} {
			for _, k := range []int{2, 3} {
				cfg := DefaultConfig()
				cfg.Estimator, cfg.Normalization, cfg.K = est, norm, k
				if est == EstimatorEWMA {
					cfg.EWMAAlpha = 0.3
				}
				name := fmt.Sprintf("%s/%s/k%d", est, norm, k)
				t.Run(name, func(t *testing.T) {
					hash, _ := runChar(t, cfg, false)
					observedHash, cov := runChar(t, cfg, true)
					if hash != observedHash {
						t.Fatalf("an observer changed the run: %s without, %s with", hash, observedHash)
					}
					labels := append([]string(nil), common...)
					if norm != NormalizeGroups {
						labels = append(labels, "one-cluster")
					}
					if k == 3 {
						labels = append(labels, "defer")
					}
					for _, label := range labels {
						if !cov[label] {
							t.Errorf("schedule never exercised %q (covered: %v)", label, sortedKeys(cov))
						}
					}
					got[name] = hash
					if !*updateChar && hash != golden[name] {
						t.Errorf("hash %s, golden %s", hash, golden[name])
					}
				})
			}
		}
	}
	if *updateChar && !t.Failed() {
		var sb strings.Builder
		for _, name := range sortedKeys(got) {
			fmt.Fprintf(&sb, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(charGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
