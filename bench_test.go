// Benchmarks regenerating every experiment of EXPERIMENTS.md
// (BenchmarkE01…BenchmarkE19, one per table/figure of the
// reproduction) plus per-operation microbenchmarks for every summary's
// update, merge and codec paths.
//
// Run: go test -bench=. -benchmem
package mergesum_test

import (
	"encoding"
	"fmt"
	"testing"

	mergesum "repro"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/server"
)

// benchCfg trims the experiments so a full -bench=. pass stays
// laptop-scale while still exercising every code path end to end.
func benchCfg() experiments.Config {
	return experiments.Config{N: 40000, Seed: 7, Quick: true}
}

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.Run(benchCfg())
		if len(res.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE01(b *testing.B) { benchExperiment(b, "E01") }
func BenchmarkE02(b *testing.B) { benchExperiment(b, "E02") }
func BenchmarkE03(b *testing.B) { benchExperiment(b, "E03") }
func BenchmarkE04(b *testing.B) { benchExperiment(b, "E04") }
func BenchmarkE05(b *testing.B) { benchExperiment(b, "E05") }
func BenchmarkE06(b *testing.B) { benchExperiment(b, "E06") }
func BenchmarkE07(b *testing.B) { benchExperiment(b, "E07") }
func BenchmarkE08(b *testing.B) { benchExperiment(b, "E08") }
func BenchmarkE09(b *testing.B) { benchExperiment(b, "E09") }
func BenchmarkE10(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE15(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17(b *testing.B) { benchExperiment(b, "E17") }
func BenchmarkE18(b *testing.B) { benchExperiment(b, "E18") }
func BenchmarkE19(b *testing.B) { benchExperiment(b, "E19") }

// --- per-operation microbenchmarks -----------------------------------

const benchStreamLen = 1 << 16

func zipfStream() []mergesum.Item {
	return gen.NewZipf(benchStreamLen/16, 1.2, 1).Stream(benchStreamLen)
}

func BenchmarkMisraGriesUpdate(b *testing.B) {
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			stream := zipfStream()
			s := mergesum.NewMisraGries(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(stream[i%len(stream)], 1)
			}
		})
	}
}

func BenchmarkSpaceSavingUpdate(b *testing.B) {
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			stream := zipfStream()
			s := mergesum.NewSpaceSaving(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(stream[i%len(stream)], 1)
			}
		})
	}
}

func BenchmarkCountMinUpdate(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewCountMin(1024, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(stream[i%len(stream)], 1)
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewCountSketch(1024, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(stream[i%len(stream)], 1)
	}
}

func BenchmarkGKUpdate(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewGK(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i%len(vals)])
	}
}

func BenchmarkQuantileUpdate(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewQuantile(0.01, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i%len(vals)])
	}
}

func BenchmarkQuantileHybridUpdate(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewQuantileHybrid(0.01, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i%len(vals)])
	}
}

func BenchmarkBottomKUpdate(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewBottomK(4096, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i%len(vals)])
	}
}

// --- batch ingestion microbenchmarks ---------------------------------
//
// Each BenchmarkXxxUpdateBatch mirrors its per-item BenchmarkXxxUpdate
// above, feeding the same stream in benchBatchLen-item slices; ns/op is
// per item in both, so the ratio is the batch-path speedup.

const benchBatchLen = 1024

func BenchmarkMisraGriesUpdateBatch(b *testing.B) {
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			stream := zipfStream()
			s := mergesum.NewMisraGries(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += benchBatchLen {
				off := i % (len(stream) - benchBatchLen)
				s.UpdateBatch(stream[off : off+benchBatchLen])
			}
		})
	}
}

func BenchmarkSpaceSavingUpdateBatch(b *testing.B) {
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			stream := zipfStream()
			s := mergesum.NewSpaceSaving(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += benchBatchLen {
				off := i % (len(stream) - benchBatchLen)
				s.UpdateBatch(stream[off : off+benchBatchLen])
			}
		})
	}
}

func BenchmarkCountMinUpdateBatch(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewCountMin(1024, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(stream) - benchBatchLen)
		s.UpdateBatch(stream[off : off+benchBatchLen])
	}
}

func BenchmarkCountSketchUpdateBatch(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewCountSketch(1024, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(stream) - benchBatchLen)
		s.UpdateBatch(stream[off : off+benchBatchLen])
	}
}

func BenchmarkGKUpdateBatch(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewGK(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(vals) - benchBatchLen)
		s.UpdateBatch(vals[off : off+benchBatchLen])
	}
}

func BenchmarkQuantileUpdateBatch(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewQuantile(0.01, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(vals) - benchBatchLen)
		s.UpdateBatch(vals[off : off+benchBatchLen])
	}
}

func BenchmarkQuantileHybridUpdateBatch(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewQuantileHybrid(0.01, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(vals) - benchBatchLen)
		s.UpdateBatch(vals[off : off+benchBatchLen])
	}
}

func BenchmarkBottomKUpdateBatch(b *testing.B) {
	vals := gen.UniformValues(benchStreamLen, 2)
	s := mergesum.NewBottomK(4096, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(vals) - benchBatchLen)
		s.UpdateBatch(vals[off : off+benchBatchLen])
	}
}

func BenchmarkKMVUpdateBatch(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewKMV(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(stream) - benchBatchLen)
		s.UpdateBatch(stream[off : off+benchBatchLen])
	}
}

func BenchmarkHLLUpdateBatch(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewHLL(12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(stream) - benchBatchLen)
		s.UpdateBatch(stream[off : off+benchBatchLen])
	}
}

func BenchmarkTopKUpdateBatch(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewTopK(64, 512, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatchLen {
		off := i % (len(stream) - benchBatchLen)
		s.UpdateBatch(stream[off : off+benchBatchLen])
	}
}

func buildMG(k int, seed uint64) *mergesum.MisraGries {
	s := mergesum.NewMisraGries(k)
	for _, x := range gen.NewZipf(4096, 1.2, seed).Stream(benchStreamLen) {
		s.Update(x, 1)
	}
	return s
}

func BenchmarkMisraGriesMergePODS(b *testing.B) {
	a, c := buildMG(256, 1), buildMG(256, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.Clone()
		if err := m.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMisraGriesMergeLowError(b *testing.B) {
	a, c := buildMG(256, 1), buildMG(256, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.Clone()
		if err := m.MergeLowError(c); err != nil {
			b.Fatal(err)
		}
	}
}

func buildSS(k int, seed uint64) *mergesum.SpaceSaving {
	s := mergesum.NewSpaceSaving(k)
	for _, x := range gen.NewZipf(4096, 1.2, seed).Stream(benchStreamLen) {
		s.Update(x, 1)
	}
	return s
}

func BenchmarkSpaceSavingMergePODS(b *testing.B) {
	a, c := buildSS(256, 1), buildSS(256, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.Clone()
		if err := m.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpaceSavingMergeLowError(b *testing.B) {
	a, c := buildSS(256, 1), buildSS(256, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.Clone()
		if err := m.MergeLowError(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantileMerge(b *testing.B) {
	build := func(seed uint64) *mergesum.Quantile {
		s := mergesum.NewQuantile(0.01, seed)
		for _, v := range gen.UniformValues(benchStreamLen, seed) {
			s.Update(v)
		}
		return s
	}
	a, c := build(1), build(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.Clone()
		if err := m.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGKMerge(b *testing.B) {
	build := func(seed uint64) *mergesum.GK {
		s := mergesum.NewGK(0.01)
		for _, v := range gen.UniformValues(benchStreamLen, seed) {
			s.Update(v)
		}
		return s
	}
	a, c := build(1), build(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.Clone()
		if err := m.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountMinMerge(b *testing.B) {
	a := mergesum.NewCountMin(1024, 4, 1)
	c := mergesum.NewCountMin(1024, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMisraGriesCodec(b *testing.B) {
	s := buildMG(256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := s.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var out mergesum.MisraGries
		if err := out.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantileQuery(b *testing.B) {
	s := mergesum.NewQuantile(0.01, 1)
	for _, v := range gen.UniformValues(benchStreamLen, 1) {
		s.Update(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.99)
	}
}

func BenchmarkMisraGriesEstimate(b *testing.B) {
	s := buildMG(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate(mergesum.Item(i % 4096))
	}
}

func BenchmarkKMVUpdate(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewKMV(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(stream[i%len(stream)])
	}
}

func BenchmarkHLLUpdate(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewHLL(12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(stream[i%len(stream)])
	}
}

func BenchmarkHLLMerge(b *testing.B) {
	mk := func(seed uint64) *mergesum.HLL {
		s := mergesum.NewHLL(12, 1)
		for _, x := range gen.NewZipf(4096, 1.2, seed).Stream(benchStreamLen) {
			s.Update(x)
		}
		return s
	}
	a, c := mk(1), mk(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKUpdate(b *testing.B) {
	stream := zipfStream()
	s := mergesum.NewTopK(64, 512, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(stream[i%len(stream)], 1)
	}
}

// Server round-trip: one PUSH of a k=256 MG summary into a live
// summaryd over loopback TCP, including encode, wire, decode and merge.
func BenchmarkServerPush(b *testing.B) {
	srv := server.New()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-done
	}()
	c, err := server.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := buildMG(256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Push("bench", "mg", s); err != nil {
			b.Fatal(err)
		}
	}
}

// Server batched round-trip: PUSHB pipelines 16 frames behind one
// command line and one reply. ns/op is per pushed summary, directly
// comparable to BenchmarkServerPush.
func BenchmarkServerPushBatch(b *testing.B) {
	srv := server.New()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-done
	}()
	c, err := server.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := buildMG(256, 1)
	const per = 16
	batch := make([]encoding.BinaryMarshaler, per)
	for i := range batch {
		batch[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += per {
		if _, err := c.PushBatch("bench", "mg", batch); err != nil {
			b.Fatal(err)
		}
	}
}
