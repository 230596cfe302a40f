package main

// layerMetrics fills the layer metrics that come from this workload's
// own rounds: the traced round's division of operation time among
// layers, the untraced rounds' tails and raw values, and the harness's
// account of itself.
func layerMetrics(out *runOutput, ms []measured, refs []float64, traced roundResult, traces []*clientTrace) {
	set := func(name, unit string, v float64) { out.Metrics[name] = metricValue{v, unit} }
	ts := summarize(traces)

	var writeRoots, readRoots []int64
	for name, xs := range ts.rootByName {
		if writeOps[name] {
			writeRoots = append(writeRoots, xs...)
		} else {
			readRoots = append(readRoots, xs...)
		}
	}
	set("trace.op_write_us", "us", medianNs(writeRoots, 1e3))
	set("trace.op_read_us", "us", medianNs(readRoots, 1e3))
	for _, l := range traceLayers {
		set("share."+l, "ratio", float64(ts.layerNs[l])/float64(max(ts.rootNs, 1)))
	}
	set("wire.write_self_us", "us", medianNs(ts.wireWrites, 1e3))
	set("wire.read_self_us", "us", medianNs(ts.wireReads, 1e3))
	set("shadow.within_call_ratio", "ratio", float64(ts.shadowOK)/float64(max(ts.shadowed, 1)))
	set("trace.sum_error", "ratio", ts.sumError)
	untracedWall := median(perRound(ms, func(m measured) float64 { return m.wallS }))
	set("trace.overhead_ratio", "ratio", traced.wallS/untracedWall)

	set("wire.bytes_per_op", "B", median(perRound(ms, func(m measured) float64 {
		return float64(m.wireBytes) / float64(max(m.ops, 1))
	})))
	set("node.merges_per_op", "count", median(perRound(ms, func(m measured) float64 {
		return float64(m.merges) / float64(max(m.ops, 1))
	})))

	tails := func(prefix string, samples func(m measured) []float64) {
		var pct float64
		set("client."+prefix+"_p90_us", "us", median(perRound(ms, func(m measured) float64 {
			return normTime(percentile(samples(m), 90), m.refS)
		})))
		set("client."+prefix+"_tail_us", "us", median(perRound(ms, func(m measured) float64 {
			var v float64
			pct, v = tailPercentile(samples(m))
			return normTime(v, m.refS)
		})))
		set("client."+prefix+"_tail_pct", "%", pct)
	}
	tails("write", func(m measured) []float64 { return m.writesUs })
	tails("read", func(m measured) []float64 { return m.readsUs })

	refMed := median(refs)
	lo, hi := refs[0], refs[0]
	for _, r := range refs {
		lo, hi = min(lo, r), max(hi, r)
	}
	set("ref.kernel_s", "s", refMed)
	set("ref.spread", "ratio", (hi-lo)/refMed)
	set("raw.ops_per_s", "1/s", median(perRound(ms, func(m measured) float64 { return float64(m.ops) / m.wallS })))
	set("raw.write_p50_us", "us", median(perRound(ms, func(m measured) float64 { return p50(m.writesUs) })))
	set("raw.read_p50_us", "us", median(perRound(ms, func(m measured) float64 { return p50(m.readsUs) })))
	set("raw.cpu_us_per_op", "us", median(perRound(ms, func(m measured) float64 {
		return m.cpuS * 1e6 / float64(max(m.ops, 1))
	})))
}
