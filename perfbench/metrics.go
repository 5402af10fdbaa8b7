package main

import "strings"

// metricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json lists the same metrics; the self-test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by an untraced invocation.
var endToEnd = []metricDef{
	{"host_us_per_op", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_op_frac", "frac", "higher"},
}

// allocLayers are the layers whose heap-profile bytes are reported.
var allocLayers = []string{"storage", "kv", "sim", "ycsb", "cassandra", "hbase", "consistency"}

// modelMetrics are the simulated outputs: virtual time and counts over the
// run phase, deterministic for a workload and seed.
var modelMetrics = []metricDef{
	{"ycsb.sim_ops_per_s", "1/s", "higher"},
	{"ycsb.sessions", "count", "higher"},
	{"kv.read_p50_ms", "ms", "lower"},
	{"kv.read_p99_ms", "ms", "lower"},
	{"kv.read_samples", "count", "higher"},
	{"kv.update_p99_ms", "ms", "lower"},
	{"kv.update_samples", "count", "higher"},
	{"kv.insert_p99_ms", "ms", "lower"},
	{"kv.insert_samples", "count", "higher"},
	{"kv.scan_p99_ms", "ms", "lower"},
	{"kv.scan_samples", "count", "higher"},
	{"storage.gets_per_op", "1/op", "lower"},
	{"storage.puts_per_op", "1/op", "lower"},
	{"storage.scans_per_op", "1/op", "lower"},
	{"storage.flushes", "count", "lower"},
	{"storage.compactions", "count", "lower"},
	{"storage.compacted_mb", "MB", "lower"},
	{"storage.sstables", "count", "lower"},
	{"storage.cache_hit_rate", "frac", "higher"},
	{"storage.wal_appends_per_batch", "1/batch", "higher"},
	{"cassandra.repair_writes_per_kop", "1/kop", "lower"},
	{"cassandra.digest_mismatch_per_kop", "1/kop", "lower"},
	{"cassandra.timeouts", "count", "lower"},
	{"hbase.replication_sends_per_op", "1/op", "lower"},
	{"hdfs.blocks_written", "count", "lower"},
	{"cluster.cpu_util", "frac", "lower"},
	{"cluster.cpu_wait_ms", "ms", "lower"},
	{"cluster.disk_util", "frac", "lower"},
	{"cluster.net_mb_per_kop", "MB/kop", "lower"},
	{"sim.windows_per_kop", "1/kop", "lower"},
	{"consistency.reads", "count", "higher"},
	{"consistency.stale_reads", "count", "lower"},
}

// selfMetric is the per-op CPU metric of an attribution bucket.
func selfMetric(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_us_per_op"
	}
	return bucket + ".self_us_per_op"
}

// perLayer are reported by a traced invocation, in BENCHMARK.json order.
func perLayer() []metricDef {
	var out []metricDef
	for _, b := range buckets {
		out = append(out, metricDef{selfMetric(b), "us/op", "lower"})
	}
	out = append(out, metricDef{"bench.trace_overhead_frac", "frac", "lower"})
	for _, l := range allocLayers {
		out = append(out, metricDef{l + ".alloc_b_per_op", "B/op", "lower"})
	}
	out = append(out,
		metricDef{"runtime.allocs_per_op", "1/op", "lower"},
		metricDef{"runtime.alloc_b_per_op", "B/op", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"cassandra.new_ms", "ms", "lower"},
		metricDef{"hbase.new_ms", "ms", "lower"},
		metricDef{"ycsb.load_s", "s", "lower"},
		metricDef{"sim.run_s", "s", "lower"},
		metricDef{"ycsb.failed_op_frac", "frac", "lower"},
	)
	return append(out, modelMetrics...)
}
