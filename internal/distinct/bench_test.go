package distinct

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// BenchmarkUpdateBatch is one edge report's KMV summary: a
// fresh k=256 summary fed one 8192-record chunk of Zipf items over 2048
// keys (benchmark/families.go's shape), rotating through 24 chunks so
// no run repeats what the branch predictor has just seen.
func BenchmarkUpdateBatch(b *testing.B) {
	chunks := make([][]core.Item, 24)
	for i := range chunks {
		chunks[i] = gen.NewZipf(2048, 1.1, uint64(i+1)).Stream(8192)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewKMV(256, 9).UpdateBatch(chunks[i%len(chunks)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8192), "ns/item")
}
