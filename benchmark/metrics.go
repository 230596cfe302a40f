package main

// metricSpec is one metric as BENCHMARK.json declares it. The lists
// below are the single source of the names; a test checks that
// BENCHMARK.json at the repository root says the same and that a run
// emits exactly these.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndSpecs are the metrics a user of the system would see, with
// the share of the parent's median by which each may worsen before a
// change counts as a regression. The timing bounds are three times the
// spread (interquartile range over median, ten runs, ten seeds) this
// machine showed, as the contract asks; see README.md, "Bounds".
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"answer_bytes", "B", "lower", 0.10},
	{"err_over_bound", "ratio", "lower", 0.10},
}

// perLayerSpecs are the layer metrics of a --trace 1 run: first the
// ones read off the workload's own traced round and untraced rounds,
// then the probes, which are the same experiment in every workload.
var perLayerSpecs = buildPerLayerSpecs()

func buildPerLayerSpecs() []metricSpec {
	specs := []metricSpec{
		// The traced round: where an operation's time goes.
		{Name: "trace.op_write_us", Unit: "us", Better: "lower"},
		{Name: "trace.op_read_us", Unit: "us", Better: "lower"},
		{Name: "wire.write_self_us", Unit: "us", Better: "lower"},
		{Name: "wire.read_self_us", Unit: "us", Better: "lower"},
		{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "node.merges_per_op", Unit: "count", Better: "lower"},
		{Name: "shadow.within_call_ratio", Unit: "ratio", Better: "higher"},
		{Name: "trace.sum_error", Unit: "ratio", Better: "lower"},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		// Tails, from the untraced rounds; not end-to-end metrics on
		// this machine because they do not repeat within a tenth.
		{Name: "client.write_p90_us", Unit: "us", Better: "lower"},
		{Name: "client.write_tail_us", Unit: "us", Better: "lower"},
		{Name: "client.write_tail_pct", Unit: "%", Better: "higher"},
		{Name: "client.read_p90_us", Unit: "us", Better: "lower"},
		{Name: "client.read_tail_us", Unit: "us", Better: "lower"},
		{Name: "client.read_tail_pct", Unit: "%", Better: "higher"},
		// The harness itself, so the normalisation can be audited.
		{Name: "ref.kernel_s", Unit: "s", Better: "lower"},
		{Name: "ref.spread", Unit: "ratio", Better: "lower"},
		{Name: "raw.ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "raw.write_p50_us", Unit: "us", Better: "lower"},
		{Name: "raw.read_p50_us", Unit: "us", Better: "lower"},
		{Name: "raw.cpu_us_per_op", Unit: "us", Better: "lower"},
	}
	for _, l := range traceLayers {
		specs = append(specs, metricSpec{Name: "share." + l, Unit: "ratio", Better: "lower"})
	}
	// Probes: kernels, registry and codec, per family.
	for _, f := range families {
		specs = append(specs,
			metricSpec{Name: "kernel." + f.name + ".update_ns_per_item", Unit: "ns", Better: "lower"},
			metricSpec{Name: "registry." + f.name + ".decode_us", Unit: "us", Better: "lower"},
			metricSpec{Name: "registry." + f.name + ".merge_us", Unit: "us", Better: "lower"},
			metricSpec{Name: "registry." + f.name + ".encode_us", Unit: "us", Better: "lower"},
			metricSpec{Name: "codec." + f.name + ".frame_bytes", Unit: "B", Better: "lower"},
		)
	}
	return append(specs, []metricSpec{
		{Name: "codec.frame_check_ns_per_kib", Unit: "ns", Better: "lower"},
		{Name: "mergetree.parallel8_us", Unit: "us", Better: "lower"},
		{Name: "mergetree.parallel8_w2_speedup", Unit: "ratio", Better: "higher"},
		{Name: "shard.front_push_ns", Unit: "ns", Better: "lower"},
		{Name: "shard.front_drain_us", Unit: "us", Better: "lower"},
		{Name: "node.ingest_batch8_front_us", Unit: "us", Better: "lower"},
		{Name: "window.advance_us", Unit: "us", Better: "lower"},
		{Name: "window.rollup_lag_us", Unit: "us", Better: "lower"},
		{Name: "window.query_miss_us", Unit: "us", Better: "lower"},
		{Name: "window.query_hit_ns", Unit: "ns", Better: "lower"},
		{Name: "window.cover_pieces", Unit: "count", Better: "lower"},
		{Name: "window.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "node.ingest_us", Unit: "us", Better: "lower"},
		{Name: "node.ingest_batch8_us", Unit: "us", Better: "lower"},
		{Name: "node.encoded_hit_ns", Unit: "ns", Better: "lower"},
		{Name: "node.encoded_miss_us", Unit: "us", Better: "lower"},
		{Name: "node.window_encoded_miss_us", Unit: "us", Better: "lower"},
		{Name: "node.advance_windows_us", Unit: "us", Better: "lower"},
		{Name: "wire.push_self_us", Unit: "us", Better: "lower"},
		{Name: "wire.pushb8_self_us", Unit: "us", Better: "lower"},
		{Name: "wire.pull_self_us", Unit: "us", Better: "lower"},
		{Name: "wire.qwin_self_us", Unit: "us", Better: "lower"},
		{Name: "wire.dial_us", Unit: "us", Better: "lower"},
		{Name: "fanout.pullc_rtt_us", Unit: "us", Better: "lower"},
		{Name: "fanout.pullc_self_us", Unit: "us", Better: "lower"},
		{Name: "fanout.peer_reads_per_pullc", Unit: "count", Better: "lower"},
		{Name: "fanout.retries", Unit: "count", Better: "lower"},
		{Name: "fanout.errors", Unit: "count", Better: "lower"},
		{Name: "clusterclient.pullall_rtt_us", Unit: "us", Better: "lower"},
		{Name: "clusterclient.push_rtt_us", Unit: "us", Better: "lower"},
		{Name: "cluster.reduce3_us", Unit: "us", Better: "lower"},
		{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	}...)
}

// benchmarkSpec is BENCHMARK.json: the contract between this program
// and the driver, generated from the lists above (-spec prints it) so
// the two cannot drift apart.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func currentSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
	for _, wl := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{wl.name, wl.why})
	}
	return spec
}
