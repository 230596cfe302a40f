package gk

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkUpdateBatch is one edge report's GK summary: a fresh
// ε = 0.02 summary fed one 8192-value log-normal chunk (benchmark/
// families.go's shape), rotating through 24 chunks so no run repeats
// what the branch predictor has just seen.
func BenchmarkUpdateBatch(b *testing.B) {
	chunks := make([][]float64, 24)
	for i := range chunks {
		chunks[i] = gen.LogNormalValues(8192, 0, 1, uint64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(0.02).UpdateBatch(chunks[i%len(chunks)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8192), "ns/item")
}
