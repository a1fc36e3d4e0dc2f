package main

// perLayer lists every per-layer metric of a traced run with its unit,
// in the order of BENCHMARK.json. A traced run of any workload reports
// all of them; a layer the workload does not call reads 0 (README.md
// maps each metric to the workload that exercises it).
var perLayer = []struct{ name, unit string }{
	{"dist.sample_ms", "ms"},
	{"dist.particles", "count"},
	{"acd.assign_ms", "ms"},
	{"acd.assign_ns_per_particle", "ns"},
	{"commmat.nfi_build_ms", "ms"},
	{"commmat.nfi_events", "count"},
	{"commmat.nfi_pairs", "count"},
	{"commmat.nfi_build_ns_per_event", "ns"},
	{"fmmmodel.ffi_ms", "ms"},
	{"commmat.ffi_events", "count"},
	{"commmat.ffi_pairs", "count"},
	{"topology.table_ms", "ms"},
	{"commmat.contract_ms", "ms"},
	{"commmat.contract_ns_per_pair", "ns"},
	{"topology.distance_queries", "count"},
	{"experiments.parallel_eff", "ratio"},
	{"incr.tick_busy_ms", "ms"},
	{"incr.acd_ms", "ms"},
	{"incr.moved_frac", "ratio"},
	{"incr.touched_events", "count"},
	{"incr.rebuild_frac", "ratio"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.coalesced_ms_p50", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.compute_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"resultcache.evictions", "count"},
	{"resultcache.bytes", "bytes"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.offered_rps", "1/s"},
	{"mem.peak_heap_mib", "MiB"},
	{"mem.alloc_mib", "MiB"},
	{"mem.gc_cycles", "count"},
	{"bench.trace_overhead", "ratio"},
	{"bench.uncovered_ms", "ms"},
	{"bench.traced_wall_ms", "ms"},
	{"bench.property_ok", "bool"},
	{"acd.events", "count"},
	{"commmat.events", "count"},
	{"commmat.pairs", "count"},
	{"commmat.fused_contractions", "count"},
	{"topology.distance.analytic", "count"},
	{"incr.retracted", "count"},
	{"incr.readded", "count"},
}

// fillLayers reports 0 for every per-layer metric the workload did not
// measure, so a traced run always carries the full set.
func fillLayers(res *result) {
	for _, l := range perLayer {
		if _, ok := res.metrics[l.name]; !ok {
			res.set(l.name, 0, l.unit)
		}
	}
}
