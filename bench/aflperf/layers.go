package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// layerMetrics derives the per-layer numbers that come from the live
// traced run: taps, Stats() and the generator's own log. The replayed
// kernels are in replay.go.
func layerMetrics(w *workload, res *runResult, j *joined, final *sutStats, dump *sutDump, wireBytes int64) {
	dim := float64(w.Dim)
	total := res.totals()

	// transport: ingest is the ack time of requests no round ran behind.
	var ingest, gobAck, binAck []float64
	for i := range j.recs {
		r := &j.recs[i]
		if !r.OK {
			continue
		}
		service := float64(r.Replied-r.Sent) / 1e3
		if r.NoRound {
			ingest = append(ingest, service)
			if r.Gob {
				gobAck = append(gobAck, service)
			} else {
				binAck = append(binAck, service)
			}
		}
	}
	res.setN("transport.ingest_us_per_update", summarize(ingest).Median, len(ingest))
	res.set("transport.wire_bytes_per_update", ratio(float64(wireBytes), float64(total.Attempted)))
	if w.Hostile {
		res.setN("transport.gob_ack_ratio", ratio(summarize(gobAck).Median, summarize(binAck).Median), len(gobAck))
	}

	var received, nacks, quarantined, shed, stale, rejected, deferred float64
	for _, s := range final.Servers {
		received += float64(s.UpdatesReceived)
		nacks += float64(s.NacksSent)
		quarantined += float64(s.DroppedQuarantined)
		shed += float64(s.DroppedShed)
		stale += float64(s.DroppedStale)
		rejected += float64(s.Rejected)
		deferred += float64(s.Deferred)
	}
	res.set("transport.nack_share", ratio(nacks, received))
	res.set("transport.quarantined_share", ratio(quarantined, received))
	res.set("transport.shed_share", ratio(shed, received))
	res.set("transport.stale_drop_share", ratio(stale, received))
	res.set("core.rejected_share", ratio(rejected, received))
	res.set("core.deferred_share", ratio(deferred, received))
	res.set("core.groups_live", float64(final.GroupsLive))

	// fl / core: the client-facing tier's taps (the server, or both edges).
	tier := final.Taps[:1]
	tierDumps := dump.Taps[:1]
	if w.Tiered {
		tier, tierDumps = final.Taps[numReplicas:], dump.Taps[numReplicas:]
	}
	var t tapStats
	for _, x := range tier {
		t.FilterNs += x.FilterNs
		t.FilterCalls += x.FilterCalls
		t.FilterUpdates += x.FilterUpdates
		t.CombineNs += x.CombineNs
		t.CombineCalls += x.CombineCalls
		t.CombineUpdates += x.CombineUpdates
	}
	// Combine calls are counted in untraced phases too; rounds timed are
	// the filter's.
	res.setN("core.filter_us_per_round", ratio(float64(t.FilterNs)/1e3, float64(t.FilterCalls)), int(t.FilterCalls))
	res.set("core.filter_ns_per_float", ratio(float64(t.FilterNs), float64(t.FilterUpdates)*dim))
	res.setN("fl.combine_us_per_round", ratio(float64(t.CombineNs)/1e3, float64(t.FilterCalls)), int(t.FilterCalls))
	res.set("fl.combine_ns_per_float", ratio(float64(t.CombineNs), float64(t.CombineUpdates)*dim))

	var wait []float64
	for i := range j.recs {
		if j.entry[i] != 0 {
			wait = append(wait, msBetween(j.recs[i].Sent, j.entry[i]))
		}
	}
	res.setN("fl.buffer_wait_ms_p50", summarize(wait).Median, len(wait))

	// Verdicts by role: only the generator knows who is poisoned.
	var seenP, rejP, seenH, rejH float64
	for _, d := range tierDumps {
		for id := range d.SeenBy {
			if w.roleOf(id).poisoned() {
				seenP += float64(d.SeenBy[id])
				rejP += float64(d.RejectedBy[id])
			} else {
				seenH += float64(d.SeenBy[id])
				rejH += float64(d.RejectedBy[id])
			}
		}
	}
	res.set("core.honest_rejected_share", ratio(rejH, seenH))
	if w.Hostile {
		poison, honest := ratio(rejP, seenP), ratio(rejH, seenH)
		res.set("core.poison_rejected_share", poison)
		if poison < hostilePoisonRejectedBand[0] || poison > hostilePoisonRejectedBand[1] {
			res.problem("core.poison_rejected_share %.4f outside band %v", poison, hostilePoisonRejectedBand)
		}
		if honest < hostileHonestRejectedBand[0] || honest > hostileHonestRejectedBand[1] {
			res.problem("core.honest_rejected_share %.4f outside band %v", honest, hostileHonestRejectedBand)
		}
	}

	if w.Tiered {
		root := final.Roots[0]
		rootTap := final.Taps[0]
		res.set("topology.batch_updates_mean", ratio(float64(root.UpdatesReceived), float64(root.BatchesApplied)))
		res.setN("topology.root_apply_us", ratio(float64(rootTap.FilterNs+rootTap.CombineNs)/1e3, float64(rootTap.FilterCalls)), int(rootTap.FilterCalls))
		res.set("topology.batches_replayed", float64(root.BatchesReplayed))
		res.set("topology.batches_lost", float64(root.BatchesLost))
		var lag []float64
		for i := range j.recs {
			if j.commit[i] != 0 && j.tierCommit[i] != 0 {
				lag = append(lag, msBetween(j.tierCommit[i], j.commit[i]))
			}
		}
		sort.Float64s(lag)
		res.setN("topology.uplink_lag_ms_p50", summarize(lag).Median, len(lag))
		if v, err := percentile(lag, 0.99); err == nil {
			res.setN("topology.uplink_lag_ms_p99", v, len(lag))
		} else {
			res.unsupported(fmt.Errorf("topology.uplink_lag_ms_p99: %w", err))
		}
		primary := final.Nodes[0]
		res.set("replica.records_per_round", ratio(float64(primary.RecordsStreamed), float64(root.Rounds)))
		res.set("replica.lag_records_mean", ratio(float64(final.LagSum), float64(final.LagSamples)))
		res.set("replica.lag_records_max", float64(final.LagMax))
		res.set("replica.snapshots_served", float64(primary.SnapshotsServed))
		var elections int
		for _, n := range final.Nodes {
			elections += n.ElectionsStarted
		}
		res.set("replica.elections_started", float64(elections))
	}

	res.set("trace.blocking_path_share", j.blockingPathShare())
}

// pathParts is where one request's receive → commit time went, by layer.
type pathParts struct {
	ingest, wait, filter, combine, uplink, rootApply, total float64 // ms
}

func (p pathParts) accounted() float64 {
	return p.ingest + p.wait + p.filter + p.combine + p.uplink + p.rootApply
}

// path decomposes request i along the blocking path ingest → buffer wait
// → filter → combine [→ uplink → root apply], using only the layers'
// own timed spans; ok is false when a span is missing.
func (j *joined) path(i int) (pathParts, bool) {
	r := &j.recs[i]
	if j.commit[i] == 0 || j.entry[i] == 0 {
		return pathParts{}, false
	}
	round, ok := j.rounds[j.tierTap(i)][int(j.entryRound[i])]
	if !ok || round.CombineEnd == 0 {
		return pathParts{}, false
	}
	p := pathParts{total: msBetween(r.Due, j.commit[i])}
	// The request that completes a batch is answered after its round, so
	// its ingest ends at filter entry, with no buffer wait.
	ingestEnd := min(r.Replied, j.entry[i])
	p.ingest = msBetween(r.Due, ingestEnd)
	p.wait = msBetween(ingestEnd, j.entry[i])
	p.filter = msBetween(round.FilterStart, round.FilterEnd)
	p.combine = msBetween(round.CombineStart, round.CombineEnd)
	if j.w.Tiered {
		rootRound, ok := j.rounds[0][int(j.rootRound[i])]
		if !ok || rootRound.CombineEnd == 0 {
			return pathParts{}, false
		}
		p.uplink = msBetween(round.CombineEnd, rootRound.FilterStart)
		p.rootApply = msBetween(rootRound.FilterStart, rootRound.FilterEnd) + msBetween(rootRound.CombineStart, rootRound.CombineEnd)
	}
	return p, true
}

// blockingPathShare is the median share of receive → commit time that
// the layers' own spans account for.
func (j *joined) blockingPathShare() float64 {
	var shares []float64
	for i := range j.recs {
		if p, ok := j.path(i); ok && p.total > 0 {
			shares = append(shares, p.accounted()/p.total)
		}
	}
	return summarize(shares).Median
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: all ticks
// and the ticks the hypervisor gave to someone else. A run's share of
// stolen ticks says how much the neighbours took; it does not say when
// the host merely ran slower.
func cpuTicks() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the "cpu" label
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
