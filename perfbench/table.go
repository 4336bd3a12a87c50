package main

// metricSpec names one reported metric, its unit and which direction is
// better.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"server.requests", "count", "higher"},
	{"server.request_kb", "KB", "lower"},
	{"server.handler_ms_p50", "ms", "lower"},
	{"server.handler_ms_p99", "ms", "lower"},
	{"server.wire_ms_p50", "ms", "lower"},
	{"server.non_2xx", "count", "lower"},
	{"feam.coalescer.leads", "count", "lower"},
	{"feam.coalescer.coalesced", "count", "higher"},
	{"feam.coalescer.hit_rate", "ratio", "higher"},
	{"registry.hit", "count", "higher"},
	{"registry.miss", "count", "lower"},
	{"registry.evict", "count", "lower"},
	{"registry.hit_rate", "ratio", "higher"},
	{"feam.bdc.describe_count", "count", "lower"},
	{"feam.bdc.describe_ms", "ms/op", "lower"},
	{"feam.edc.discover_count", "count", "lower"},
	{"feam.edc.discover_ms", "ms/op", "lower"},
	{"feam.edc.shard_walks", "count", "lower"},
	{"feam.edc.shard_walks_per_event", "count/op", "lower"},
	{"feam.tec.evaluate_count", "count", "lower"},
	{"feam.tec.evaluate_ms", "ms/op", "lower"},
	{"feam.tec.determinant_ms.isa", "ms/op", "lower"},
	{"feam.tec.determinant_ms.clib", "ms/op", "lower"},
	{"feam.tec.determinant_ms.mpi", "ms/op", "lower"},
	{"feam.tec.determinant_ms.sharedlibs", "ms/op", "lower"},
	{"feam.tec.determinant_ms.abi", "ms/op", "lower"},
	{"feam.rank.assess_self_ms", "ms/op", "lower"},
	{"execsim.probe_runs", "count", "lower"},
	{"execsim.probe_ms", "ms/op", "lower"},
	{"execsim.probes_per_ready", "ratio", "lower"},
	{"fault.probe_retries", "count", "lower"},
	{"fault.retry_sleep_ms", "ms/op", "lower"},
	{"feam.staging.commits", "count", "lower"},
	{"feam.staging.rollbacks", "count", "lower"},
	{"feam.staging.ms", "ms/op", "lower"},
	{"feam.source_phase_ms", "ms/op", "lower"},
	{"feam.target_phase_ms", "ms/op", "lower"},
	{"batch.probe_cpu_hours", "h", "lower"},
	{"abicheck.index_builds", "count", "lower"},
	{"abicheck.index_ms", "ms/op", "lower"},
	{"abicheck.check_ms", "ms/op", "lower"},
	{"abicheck.agree", "count", "higher"},
	{"abicheck.disagree", "count", "lower"},
	{"store.commits", "count", "lower"},
	{"store.commit_ms", "ms/op", "lower"},
	{"store.loads", "count", "lower"},
	{"store.load_ms", "ms/op", "lower"},
	{"store.corrupt", "count", "lower"},
	{"go.alloc_kb_per_op", "KB/op", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.live_heap_growth_mb", "MB", "lower"},
	{"error_rate", "ratio", "lower"},
	{"accuracy_basic", "ratio", "higher"},
	{"accuracy_extended", "ratio", "higher"},
	{"latency_p99_ms", "ms", "lower"},
	{"latency.samples", "count", "higher"},
	{"churn.rank_ms.upgrade_clib", "ms", "lower"},
	{"churn.rank_ms.revert_clib", "ms", "lower"},
	{"churn.rank_ms.banner_rollout", "ms", "lower"},
	{"churn.rank_ms.banner_rollback", "ms", "lower"},
	{"churn.rank_ms.remove_library", "ms", "lower"},
	{"churn.rank_ms.reinstall_library", "ms", "lower"},
	{"churn.rank_ms.strip_export", "ms", "lower"},
	{"churn.rank_ms.restore_export", "ms", "lower"},
	{"churn.rank_ms.fault_window", "ms", "lower"},
	{"churn.rank_ms.engine_restart", "ms", "lower"},
	{"churn.oracle_checks", "count", "higher"},
	{"trace.spans", "count", "lower"},
	{"trace.self_ms_per_op", "ms/op", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.p50_overhead_pct", "%", "lower"},
}

// complete fills in the metrics of spec a workload did not report, at 0.
func complete(m map[string]Metric, spec []metricSpec) {
	for _, s := range spec {
		if _, ok := m[s.Name]; !ok {
			m[s.Name] = Metric{0, s.Unit}
		}
	}
}
