package mg

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// edgeChunks draws n chunks of 8192 Zipf items over 2048 keys, an edge
// report's shape (benchmark/families.go). Benchmarks rotate through
// them so no run repeats what the branch predictor has just seen.
func edgeChunks(n int) [][]core.Item {
	chunks := make([][]core.Item, n)
	for i := range chunks {
		chunks[i] = gen.NewZipf(2048, 1.1, uint64(i+1)).Stream(8192)
	}
	return chunks
}

// BenchmarkUpdate is one edge report fed record by record into a fresh
// k=64 summary: once 64 counters are live, every miss prunes, and each
// prune borrows its selection run from the lender.
func BenchmarkUpdate(b *testing.B) {
	chunks := edgeChunks(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(64)
		for _, x := range chunks[i%len(chunks)] {
			s.Update(x, 1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8192), "ns/item")
}

// BenchmarkMergeLowError is an aggregator's merge, the catalog's one:
// edge summaries folded into a long-lived accumulator of the same k,
// each merge borrowing its combined counters and sort keys.
func BenchmarkMergeLowError(b *testing.B) {
	for _, k := range []int{64, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var edges []*Summary
			for _, ch := range edgeChunks(24) {
				s := New(k)
				s.UpdateBatch(ch)
				edges = append(edges, s)
			}
			acc := New(k)
			for _, e := range edges {
				if err := acc.MergeLowError(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := acc.MergeLowError(edges[i%len(edges)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
