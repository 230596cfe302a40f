package randquant

import (
	"testing"

	"repro/internal/gen"
)

// accumulator returns a slot's summary after n edge reports of ε = 0.02
// over 8192 log-normal values each.
func accumulator(b *testing.B, n int) *Summary {
	acc := NewEpsilon(0.02, 1)
	for i := range uint64(n) {
		r := NewEpsilon(0.02, 100+i)
		r.UpdateBatch(gen.LogNormalValues(8192, 0, 1, i%16))
		if err := acc.Merge(r); err != nil {
			b.Fatal(err)
		}
	}
	return acc
}

// BenchmarkQuantile is an edge read's query on a slot that has merged
// 1,000 edge reports (about 2,000 samples over 13 levels): the median,
// and a sweep of nine phis.
func BenchmarkQuantile(b *testing.B) {
	acc := accumulator(b, 1000)
	b.Run("median", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			_ = acc.Quantile(0.5)
		}
	})
	b.Run("sweep9", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, phi := range [...]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
				_ = acc.Quantile(phi)
			}
		}
	})
}
