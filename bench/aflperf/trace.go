package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// span is one traced interval. Spans are recorded from the benchmark's
// own files, around the calls into each layer; they are kept in memory
// during the run and written once at the end. An update's spans share
// its id as Trace; a round's spans carry the round number.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Round  int    `json:"round,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceFile struct {
	Workload string `json:"workload"`
	// Note explains how to read the file.
	Note  string `json:"note"`
	Spans []span `json:"spans"`
}

// maxTracedUpdates bounds the trace file: the first this-many committed
// requests of the paced phase, each with the rounds that carried it.
const maxTracedUpdates = 512

func writeTrace(path string, w *workload, j *joined) error {
	tf := traceFile{
		Workload: w.Name,
		Note: "one 'update' span per sampled request (due time → commit), children in path order; " +
			"self time of a span = its duration minus its children's; times are wall-clock ns",
	}
	id := 0
	add := func(parent, trace int, name string, round int, start, end int64) int {
		id++
		tf.Spans = append(tf.Spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Round: round, Start: start, End: end})
		return id
	}
	traced := 0
	for i := range j.recs {
		if traced == maxTracedUpdates {
			break
		}
		if _, ok := j.path(i); !ok {
			continue
		}
		traced++
		r := &j.recs[i]
		round := j.rounds[j.tierTap(i)][int(j.entryRound[i])]
		root := add(0, 0, "update", round.Round, r.Due, j.commit[i])
		tf.Spans[len(tf.Spans)-1].Trace = root
		ingestEnd := min(r.Replied, j.entry[i])
		add(root, root, "loadgen.late", 0, r.Due, r.Sent)
		add(root, root, "transport.ingest", 0, r.Sent, ingestEnd)
		add(root, root, "fl.buffer_wait", 0, ingestEnd, j.entry[i])
		rs := add(root, root, "round", round.Round, round.FilterStart, round.CombineEnd)
		add(rs, root, "core.filter", round.Round, round.FilterStart, round.FilterEnd)
		add(rs, root, "fl.combine", round.Round, round.CombineStart, round.CombineEnd)
		if w.Tiered {
			rr := j.rounds[0][int(j.rootRound[i])]
			add(root, root, "topology.uplink", rr.Round, round.CombineEnd, rr.FilterStart)
			ap := add(root, root, "topology.root_apply", rr.Round, rr.FilterStart, rr.CombineEnd)
			add(ap, root, "core.filter", rr.Round, rr.FilterStart, rr.FilterEnd)
			add(ap, root, "fl.combine", rr.Round, rr.CombineStart, rr.CombineEnd)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&tf); err != nil {
		_ = f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
