package main

// declared is one metric BENCHMARK.json lists; a run must report
// exactly the declared set of its mode.
type declared struct {
	name, unit string
}

// endToEnd are the -trace 0 metrics, what a user of matchd sees.
var endToEnd = []declared{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"}, {"capacity_rps", "1/s"},
	{"cpu_ms_per_req", "ms"}, {"setup_heap_mb", "MiB"}, {"update_p50_ms", "ms"},
}

// perLayer are the -trace 1 metrics, grouped by the layer they time.
var perLayer = []declared{
	// wire (httpserve)
	{"http.loopback_ms", "ms"}, {"httpserve.handler_ms", "ms"}, {"httpserve.decode_us", "us"},
	{"httpserve.encode_us", "us"}, {"client.decode_us", "us"}, {"httpserve.resp_bytes", "B"},
	{"http.self_ms", "ms"}, {"httpserve.self_ms", "ms"},
	// admission (match.Server)
	{"server.match_ms", "ms"}, {"server.self_ms", "ms"}, {"server.queue_wait_p90_ms", "ms"},
	// service (match.Service)
	{"service.match_ms", "ms"}, {"service.problem_ms", "ms"},
	// search (matching, matchers)
	{"matching.search_ms.exhaustive", "ms"}, {"matching.search_ms.parallel", "ms"},
	{"matching.search_ms.beam", "ms"}, {"matching.search_ms.topk", "ms"},
	{"matching.search_ms.clustered", "ms"}, {"matching.answers_per_req", "count"},
	{"matching.yield_ratio", "ratio"},
	// sharding (shard) against the parallel search it competes with
	{"shard.search_ms.sharded2", "ms"}, {"matching.search_ms.parallel2", "ms"},
	// cost tables (matching, engine, candindex)
	{"matching.cost_table_cold_ms", "ms"}, {"matching.cost_table_warm_ms", "ms"},
	{"matching.cost_table_filtered_ms", "ms"}, {"candindex.build_ms", "ms"},
	{"candindex.pruned_frac", "ratio"}, {"engine.hit_rate", "ratio"}, {"engine.entries", "count"},
	// kernels (similarity)
	{"similarity.kernel_ns_per_pair", "ns"}, {"similarity.pairs_per_req", "count"},
	// boot (xmlschema, matchers/clustered)
	{"xmlschema.read_corpus_ms", "ms"}, {"clustered.index_build_ms", "ms"},
	// update (xmlschema, match, store)
	{"xmlschema.write_repo_ms", "ms"}, {"xmlschema.read_repo_ms", "ms"}, {"server.update_ms", "ms"},
	{"store.append_diff_ms", "ms"}, {"store.load_ms", "ms"},
	// bounds
	{"bounds.incremental_us", "us"},
	// load generator
	{"loadgen.lag_tail_ms", "ms"}, {"loadgen.sent", "count"}, {"loadgen.completed", "count"},
	{"client.tail_ms", "ms"},
	// time no layer accounts for
	{"unattributed_ms", "ms"},
}
