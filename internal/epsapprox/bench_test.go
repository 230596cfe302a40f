package epsapprox

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkUpdate is one edge report's ε-approximation: a fresh
// ε = 0.05 summary (s = 426) over an 8192-point uniform chunk, rotating
// through 24 chunks — the block sort and the halving merge are faster
// on an input the branch predictor has seen.
func BenchmarkUpdate(b *testing.B) {
	chunks := make([][]gen.Point, 24)
	for i := range chunks {
		chunks[i] = gen.UniformPoints(8192, uint64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewEpsilon(0.05, unitBox, uint64(i))
		for _, p := range chunks[i%len(chunks)] {
			s.Update(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8192), "ns/item")
}

// BenchmarkMerge is the aggregator's step: an edge frame of 4096
// points decoded into a reused receiver and merged into a long-lived
// accumulator, rotating through eight frames.
func BenchmarkMerge(b *testing.B) {
	var frames [][]byte
	for i := 0; i < 9; i++ {
		s := NewEpsilon(0.05, unitBox, uint64(i))
		for _, p := range gen.UniformPoints(4096, uint64(i+100)) {
			s.Update(p)
		}
		frame, err := s.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
	}
	dst, scratch := new(Summary), new(Summary)
	if err := dst.UnmarshalBinary(frames[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scratch.UnmarshalBinary(frames[1+i%(len(frames)-1)]); err != nil {
			b.Fatal(err)
		}
		if err := dst.Merge(scratch); err != nil {
			b.Fatal(err)
		}
	}
}
