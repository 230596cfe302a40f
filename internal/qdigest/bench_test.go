package qdigest

import (
	"slices"
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

// edgeFrames returns the frames of n edge digests of ln values each:
// what an aggregator merges.
func edgeFrames(tb testing.TB, n, ln int) [][]byte {
	var frames [][]byte
	for _, ch := range edgeChunks(n, ln) {
		d := NewEpsilon(16, 0.02)
		d.UpdateBatch(ch)
		frame, err := d.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
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

// BenchmarkCompress times Compress alone on the state an edge batch
// leaves before it: a fresh digest holding one 8192-value log-normal
// batch as ~6,000 uncompressed leaves, one of 24 such states per
// iteration.
func BenchmarkCompress(b *testing.B) {
	type state struct{ ids, counts []uint64 }
	var states []state
	for _, ch := range edgeChunks(24, 8192) {
		d := NewEpsilon(16, 0.02)
		ids, counts := d.leafRun(len(ch))
		for i, v := range ch {
			ids[i] = d.leaf(v)
		}
		slices.Sort(ids)
		r := 0
		for i := 0; i < len(ids); {
			j := i + 1
			for j < len(ids) && ids[j] == ids[i] {
				j++
			}
			ids[r], counts[r] = ids[i], uint64(j-i)
			r++
			i = j
		}
		states = append(states, state{slices.Clone(ids[:r]), slices.Clone(counts[:r])})
	}
	b.Run("edge", func(b *testing.B) {
		b.ReportAllocs()
		d := NewEpsilon(16, 0.02)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := states[i%len(states)]
			d.ids = append(d.ids[:0], s.ids...)
			d.counts = append(d.counts[:0], s.counts...)
			d.n, d.clean = 8192, false
			b.StartTimer()
			d.Compress()
		}
	})
}

// BenchmarkMerge is the aggregator's step, a decoded edge frame merged
// into a slot. "accumulator" merges into one long-lived digest, which
// almost always compresses in one pass; "round" is what a merge_heavy
// slot sees: a fresh digest absorbing 8 frames × 152 pushes, the 8
// rotating round by round through 24.
func BenchmarkMerge(b *testing.B) {
	var srcs []*Digest
	for _, frame := range edgeFrames(b, 24, 4096) {
		src := new(Digest)
		if err := src.UnmarshalBinary(frame); err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	b.Run("accumulator", func(b *testing.B) {
		dst := srcs[0].Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.Merge(srcs[1+i%(len(srcs)-1)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("round", func(b *testing.B) {
		const perRound = 8 * 152
		var dst *Digest
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			round, j := i/perRound, i%perRound
			if j == 0 {
				b.StopTimer()
				dst = NewEpsilon(16, 0.02)
				b.StartTimer()
			}
			if err := dst.Merge(srcs[(8*round+j%8)%len(srcs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/merge")
	})
}
