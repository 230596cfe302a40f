// Quantiles tracks request-latency percentiles across shards: each of
// 12 shards summarizes its own log-normal latency stream with the
// randomized mergeable quantile summary; the control plane merges them
// in a binary tree and reads off p50/p95/p99/p999, compared against
// the exact values. A hybrid summary runs alongside to show its size
// staying flat as the stream grows. A rank error beyond either
// summary's ε is a broken guarantee: the program panics.
package main

import (
	"fmt"
	"math"

	mergesum "repro"
	"repro/internal/exact"
	"repro/internal/gen"
)

const (
	shards    = 12
	perShard  = 80000
	eps       = 0.005
	hybridEps = 0.01
)

func main() {
	// Simulated latencies: log-normal, with shard 0 degraded (a slow
	// replica) so the merged tail is dominated by one shard — the case
	// where per-shard percentile averaging (the common wrong approach)
	// fails and mergeable summaries shine.
	var all []float64
	summaries := make([]*mergesum.Quantile, shards)
	hybrid := mergesum.NewQuantileHybrid(hybridEps, 99)
	for s := 0; s < shards; s++ {
		mu, sigma := 1.0, 0.5
		if s == 0 {
			mu, sigma = 2.2, 0.7 // degraded shard
		}
		lat := gen.LogNormalValues(perShard, mu, sigma, uint64(s)+1)
		summaries[s] = mergesum.NewQuantile(eps, uint64(s)+100)
		summaries[s].UpdateBatch(lat)
		hybrid.UpdateBatch(lat)
		all = append(all, lat...)
	}

	merged, err := mergesum.MergeBinary(summaries, (*mergesum.Quantile).Merge)
	if err != nil {
		panic(err)
	}

	oracle := exact.QuantilesOf(all)
	n := merged.N()
	fmt.Printf("shards=%d requests=%d  merged summary: %d samples (%.3g%% of data)\n\n",
		shards, n, merged.Size(), 100*float64(merged.Size())/float64(n))
	// rankErr is the signed rank error of answering phi with v, as a
	// fraction of n.
	rankErr := func(phi, v float64) float64 {
		return (float64(oracle.Rank(v)) - phi*float64(n)) / float64(n)
	}
	broken := false
	fmt.Printf("%-8s %-12s %-12s %-12s\n", "phi", "merged", "exact", "rank err")
	for _, phi := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		got := merged.Quantile(phi)
		e := rankErr(phi, got)
		broken = broken || math.Abs(e) > eps
		fmt.Printf("%-8g %-12.3f %-12.3f %+.4f%%\n", phi, got, oracle.Quantile(phi), 100*e)
	}

	fmt.Printf("\nhybrid summary: %d samples after %d values (sampling level %d) — size independent of n\n",
		hybrid.Size(), hybrid.N(), hybrid.SampleLevel())
	hp99 := hybrid.Quantile(0.99)
	he := rankErr(0.99, hp99)
	broken = broken || math.Abs(he) > hybridEps
	fmt.Printf("hybrid p99: %.3f (exact %.3f, rank err %+.4f%%)\n", hp99, oracle.Quantile(0.99), 100*he)
	if broken {
		panic(fmt.Sprintf("quantiles: a rank error exceeds its summary's bound (merged %g, hybrid %g)", eps, hybridEps))
	}

	// The wrong way, for contrast: averaging per-shard p99s, each
	// computed exactly from its shard's stream.
	var avgP99 float64
	perShardP99 := make([]float64, shards)
	for s := 0; s < shards; s++ {
		mu, sigma := 1.0, 0.5
		if s == 0 {
			mu, sigma = 2.2, 0.7
		}
		lat := gen.LogNormalValues(perShard, mu, sigma, uint64(s)+1)
		perShardP99[s] = exact.QuantilesOf(lat).Quantile(0.99)
		avgP99 += perShardP99[s] / float64(shards)
	}
	fmt.Printf("\naveraging per-shard p99s would report %.3f — off by %+.1f%% from the true %.3f\n",
		avgP99, 100*(avgP99-oracle.Quantile(0.99))/oracle.Quantile(0.99), oracle.Quantile(0.99))
}
