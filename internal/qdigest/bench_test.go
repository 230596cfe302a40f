package qdigest

import (
	"testing"

	"repro/internal/gen"
)

// edgeChunks draws n chunks of ln log-normal values scaled into a
// 16-bit universe — the shape an edge report summarises (benchmark/
// families.go). Benchmarks rotate through them: sorting, merging and
// compressing are all faster on an input the branch predictor has seen.
func edgeChunks(n, ln int) [][]uint64 {
	out := make([][]uint64, n)
	for s := range out {
		out[s] = make([]uint64, ln)
		for i, v := range gen.LogNormalValues(ln, 0, 1, uint64(s+1)*77) {
			out[s][i] = uint64(v * 4096)
		}
	}
	return out
}

// BenchmarkUpdateBatch is one edge report's q-digest: a fresh digest,
// an 8192-value batch, and (in the second case) the frame.
func BenchmarkUpdateBatch(b *testing.B) {
	chunks := edgeChunks(24, 8192)
	for _, encode := range []bool{false, true} {
		name := "update"
		if encode {
			name = "update+encode"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := NewEpsilon(16, 0.02)
				d.UpdateBatch(chunks[i%len(chunks)])
				if encode {
					if _, err := d.MarshalBinary(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMerge is the aggregator's step: a decoded edge frame merged
// into a long-lived accumulator.
func BenchmarkMerge(b *testing.B) {
	var srcs []*Digest
	for _, ch := range edgeChunks(9, 4096) {
		d := NewEpsilon(16, 0.02)
		d.UpdateBatch(ch)
		frame, err := d.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		src := new(Digest)
		if err := src.UnmarshalBinary(frame); err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	dst := srcs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(srcs[1+i%(len(srcs)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}
