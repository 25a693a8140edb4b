package main

// metricDef names one metric. The catalogue is the single list of what
// the benchmark prints; BENCHMARK.json repeats it for the driver (a test
// keeps the two equal) and adds the regression bound of each end-to-end
// metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the server would see, the same six
// on every workload. The issue's seventh, ack_ms_p99, is measured and
// printed with them but listed per layer, where nothing is gated: over
// ten seeds its spread was 146, 12, 125 and 240 % of its median on the
// four workloads (at dim 256 the slowest 1 % of acknowledgements are the
// guest's wake-up tail, not the round), and no bound the driver accepts
// is wider than 25 %.
var endToEnd = []metricDef{
	{"updates_per_s", "1/s", "higher"},
	{"server_cpu_us_per_update", "us", "lower"},
	{"ack_ms_p50", "ms", "lower"},
	{"commit_ms_p50", "ms", "lower"},
	{"commit_ms_p99", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's numbers, one layer (Go package) per
// prefix. A metric that does not apply to a workload (checkpoint.* away
// from hostile_d256, topology.* and replica.* away from quorum_d61706,
// the *_d1e6 stress replays away from single_d61706) is left out of the
// report and reads 0 on the driver's result line.
var perLayer = []metricDef{
	{"transport.ack_ms_p99", "ms", "lower"},
	{"transport.ingest_us_per_update", "us", "lower"},
	{"transport.slab_encode_ns_per_float", "ns", "lower"},
	{"transport.slab_decode_ns_per_float", "ns", "lower"},
	{"transport.wire_bytes_per_update", "bytes", "lower"},
	{"transport.gob_ack_ratio", "ratio", "lower"},
	{"transport.nack_share", "ratio", "lower"},
	{"transport.quarantined_share", "ratio", "lower"},
	{"transport.shed_share", "ratio", "lower"},
	{"transport.stale_drop_share", "ratio", "lower"},
	{"fl.buffer_add_ns", "ns", "lower"},
	{"fl.buffer_drain_us", "us", "lower"},
	{"fl.buffer_wait_ms_p50", "ms", "lower"},
	{"fl.combine_us_per_round", "us", "lower"},
	{"fl.combine_ns_per_float", "ns", "lower"},
	{"core.filter_us_per_round", "us", "lower"},
	{"core.filter_ns_per_float", "ns", "lower"},
	{"core.filter_allocs_per_round", "count", "lower"},
	{"core.filter_floor_ratio", "ratio", "lower"},
	{"core.rejected_share", "ratio", "lower"},
	{"core.deferred_share", "ratio", "lower"},
	{"core.poison_rejected_share", "ratio", "higher"},
	{"core.honest_rejected_share", "ratio", "lower"},
	{"core.groups_live", "count", "lower"},
	{"core.snapshot_us", "us", "lower"},
	{"core.snapshot_bytes", "bytes", "lower"},
	{"core.diffstate_us", "us", "lower"},
	{"core.diffstate_bytes", "bytes", "lower"},
	{"vecmath.distance_ns_per_float", "ns", "lower"},
	{"vecmath.add_ns_per_float", "ns", "lower"},
	{"cluster.kmeans1d_us", "us", "lower"},
	{"core.filter_ns_per_float_d1e6", "ns", "lower"},
	{"vecmath.distance_ns_per_float_d1e6", "ns", "lower"},
	{"checkpoint.save_ms", "ms", "lower"},
	{"checkpoint.encode_ms", "ms", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"topology.edge_batch_bytes", "bytes", "lower"},
	{"topology.batch_updates_mean", "count", "higher"},
	{"topology.root_apply_us", "us", "lower"},
	{"topology.uplink_lag_ms_p50", "ms", "lower"},
	{"topology.uplink_lag_ms_p99", "ms", "lower"},
	{"topology.batches_replayed", "count", "lower"},
	{"topology.batches_lost", "count", "lower"},
	{"replica.record_bytes", "bytes", "lower"},
	{"replica.record_encode_us", "us", "lower"},
	{"replica.records_per_round", "count", "lower"},
	{"replica.lag_records_mean", "count", "lower"},
	{"replica.lag_records_max", "count", "lower"},
	{"replica.snapshots_served", "count", "lower"},
	{"replica.elections_started", "count", "lower"},
	{"proc.host_steal_share", "ratio", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.allocs_per_update", "count", "lower"},
	{"proc.alloc_bytes_per_update", "bytes", "lower"},
	{"proc.gc_cpu_share", "ratio", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.void_window_share", "ratio", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.blocking_path_share", "ratio", "higher"},
}

func defOf(name string) metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m
			}
		}
	}
	return metricDef{Name: name}
}
