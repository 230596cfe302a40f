package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkUpdateBatch is the collapse kernel under one edge report's
// batch: 8192 Zipf items over 2048 keys (benchmark/families.go's shape)
// collapsed and ordered by count in pooled scratch, rotating through 24
// chunks so no run repeats what the branch predictor has just seen.
func BenchmarkUpdateBatch(b *testing.B) {
	chunks := make([][]core.Item, 24)
	for i := range chunks {
		chunks[i] = gen.NewZipf(2048, 1.1, uint64(i+1)).Stream(8192)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.GetCollapse()
		c.AddItems(chunks[i%len(chunks)])
		c.Ascending()
		core.PutCollapse(c)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8192), "ns/item")
}
