package main

import (
	"fmt"
	"sort"
)

// joined is the paced phase's send log joined against the taps' rings
// from the other process: for every request, when the round that folded
// it into the global model committed, and (traced runs) when it entered
// the filter and which rounds carried it.
type joined struct {
	w     *workload
	recs  []sendRec
	start int64 // wall ns of the phase start
	span  int64 // phase length, ns

	// commit is the model-owning tier's commit time per request (0 =
	// never committed: rejected, still buffered at exit, or failed).
	commit []int64
	// entry / entryRound are the client-facing tier's filter entry per
	// request; tierCommit its own commit. Traced runs only.
	entry, tierCommit []int64
	entryRound        []int32
	// rootRound is the root round that committed the request (tiered).
	rootRound []int32
	// rounds[tap][round] looks a traced round up.
	rounds []map[int]roundSpan
	// windows is how many windows the phase is cut into, valid which of
	// them the generator kept its schedule in (see cutPaced).
	windows int
	valid   []bool
}

type updKey struct {
	client int32
	base   int64
}

// matchRing finds, for each answered request in send order, the first
// not-yet-claimed ring entry with the same (client, base version) stamped
// at or after the send: the k-th send of a key meets its k-th stamp.
// want selects which requests may claim from this ring.
func matchRing(recs []sendRec, ring *updateRing, want func(r *sendRec) bool) []int32 {
	out := make([]int32, len(recs))
	for i := range out {
		out[i] = -1
	}
	if ring == nil || len(ring.Wall) == 0 {
		return out
	}
	n := int64(len(ring.Wall))
	oldest := int64(0)
	if ring.N > n {
		oldest = ring.N % n
	}
	byKey := make(map[updKey][]int32)
	for k := int64(0); k < n; k++ {
		i := int32((oldest + k) % n)
		key := updKey{ring.Client[i], ring.Base[i]}
		byKey[key] = append(byKey[key], i)
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return recs[order[a]].Sent < recs[order[b]].Sent })
	next := make(map[updKey]int)
	for _, ri := range order {
		r := &recs[ri]
		if !r.OK || !want(r) {
			continue
		}
		key := updKey{r.Client, r.Base}
		list, p := byKey[key], next[key]
		for p < len(list) && ring.Wall[list[p]] < r.Sent {
			p++
		}
		if p < len(list) {
			out[ri] = list[p]
			p++
		}
		next[key] = p
	}
	return out
}

func joinPaced(w *workload, recs []sendRec, dump *sutDump, start, span int64) *joined {
	j := &joined{w: w, recs: recs, start: start, span: span}
	n := len(recs)
	j.commit = make([]int64, n)
	j.entry, j.tierCommit = make([]int64, n), make([]int64, n)
	j.entryRound, j.rootRound = make([]int32, n), make([]int32, n)
	all := func(*sendRec) bool { return true }

	model := dump.Taps[0]
	for i, ri := range matchRing(recs, model.Commits, all) {
		if ri >= 0 {
			j.commit[i] = model.Commits.Wall[ri]
		}
	}
	if w.Tiered {
		for i, ri := range matchRing(recs, model.Entries, all) {
			if ri >= 0 {
				j.rootRound[i] = model.Entries.Round[ri]
			}
		}
	}
	// The client-facing tier: the server itself, or the client's home edge.
	for home := 0; home < w.homes(); home++ {
		tapIdx := 0
		if w.Tiered {
			tapIdx = numReplicas + home
		}
		t := dump.Taps[tapIdx]
		mine := func(r *sendRec) bool { return int(r.Client)%w.homes() == home }
		for i, ri := range matchRing(recs, t.Entries, mine) {
			if ri >= 0 {
				j.entry[i], j.entryRound[i] = t.Entries.Wall[ri], t.Entries.Round[ri]
			}
		}
		for i, ri := range matchRing(recs, t.Commits, mine) {
			if ri >= 0 {
				j.tierCommit[i] = t.Commits.Wall[ri]
			}
		}
	}
	for _, t := range dump.Taps {
		m := make(map[int]roundSpan, len(t.Rounds))
		for _, r := range t.Rounds {
			m[r.Round] = r
		}
		j.rounds = append(j.rounds, m)
	}
	return j
}

// tierTap is the index of the tap on request i's client-facing server.
func (j *joined) tierTap(i int) int {
	if !j.w.Tiered {
		return 0
	}
	return numReplicas + int(j.recs[i].Client)%numEdges
}

// latencies returns, for the requests pick selects, the time each was
// due (ns since phase start) and its latency in ms from the due time.
func (j *joined) latencies(pick func(i int) (end int64, ok bool)) (due []int64, ms []float64) {
	for i := range j.recs {
		end, ok := pick(i)
		if !ok {
			continue
		}
		due = append(due, j.recs[i].Due-j.start)
		ms = append(ms, msBetween(j.recs[i].Due, end))
	}
	return due, ms
}

// cutPaced cuts the paced phase into its windows and judges each: a
// window in which the generator itself ran late (due time → request on
// the wire, p99) by more than one mean inter-arrival gap is void, because
// its latencies, which count from the due time, measure the generator and
// not the server. Void windows are discarded like void runs would be; the
// paced numbers are medians over the windows that remain, and the run
// fails when fewer than a third of its windows do. Judging windows, not
// the run: the shared host stalls for 100 ms or more in one run out of
// three, and one stall is 1 % of a whole phase.
//
// Every paced number uses this one cut, the finest that leaves each
// window a supportable p99.
func (j *joined) cutPaced(res *runResult) {
	j.windows = windowsFor(j.w.PacedRate*float64(j.span)/1e9, 0.99)
	var due []int64
	var late []float64
	for i := range j.recs {
		if r := &j.recs[i]; r.Client >= 0 {
			due = append(due, r.Due-j.start)
			late = append(late, msBetween(r.Due, r.Sent))
		}
	}
	perWindow, err := windowedPercentile(due, late, j.span, j.windows, 0.99)
	if err != nil {
		res.unsupported(fmt.Errorf("loadgen.late_ms_p99 over %d samples: %w", len(late), err))
		return
	}
	res.setWindows("loadgen.late_ms_p99", perWindow, len(late))
	gap := 1e3 / j.w.PacedRate
	valid := 0
	j.valid = make([]bool, j.windows)
	for w, p99 := range perWindow {
		if j.valid[w] = p99 <= gap; j.valid[w] {
			valid++
		}
	}
	res.set("loadgen.void_window_share", 1-float64(valid)/float64(j.windows))
	if 3*valid < j.windows {
		res.problem("paced phase void: the generator kept its schedule (lateness p99 within the mean inter-arrival gap of %.3f ms) in only %d of %d windows", gap, valid, j.windows)
	}
}

// endToEnd computes the paced-phase latency metrics: percentiles from the
// due time per window, median across the valid windows. A timed run
// reports all four; a traced run only the ack tail, which is listed per
// layer.
func (j *joined) endToEnd(res *runResult, timed bool) error {
	ackDue, ack := j.latencies(func(i int) (int64, bool) { return j.recs[i].Replied, j.recs[i].Answered })
	// Commit latency is a service owed to honest clients only: deferring a
	// poisoned update for rounds on end is the filter working.
	comDue, com := j.latencies(func(i int) (int64, bool) { return j.commit[i], j.commit[i] != 0 && !j.recs[i].Poisoned })
	for _, m := range []struct {
		name      string
		due       []int64
		values    []float64
		p         float64
		timedOnly bool
	}{
		{"ack_ms_p50", ackDue, ack, 0.5, true},
		{"transport.ack_ms_p99", ackDue, ack, 0.99, false},
		{"commit_ms_p50", comDue, com, 0.5, true},
		{"commit_ms_p99", comDue, com, 0.99, true},
	} {
		if m.timedOnly && !timed {
			continue
		}
		perWindow, err := windowedPercentile(m.due, m.values, j.span, j.windows, m.p)
		if err != nil {
			return fmt.Errorf("%s over %d samples: %w", m.name, len(m.values), err)
		}
		var kept []float64
		for w, v := range perWindow {
			if j.valid != nil && j.valid[w] {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			// No window is valid and the run has failed for it; what all
			// the windows say is still worth printing.
			kept = perWindow
		}
		res.setWindows(m.name, kept, len(m.values))
	}
	return nil
}
