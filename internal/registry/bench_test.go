package registry_test

import (
	"testing"

	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// BenchmarkRegistryDecodeMerge is the aggregator's unit cost for every
// registered family: decode one pushed frame into a pooled scratch
// summary and merge it into a long-lived accumulator, exactly as the
// server's merge plane does. The accumulator and the pool are warm
// before the timer starts, so allocs/op is the steady-state figure.
func BenchmarkRegistryDecodeMerge(b *testing.B) {
	for _, ent := range registry.Entries() {
		b.Run(ent.Name(), func(b *testing.B) {
			var frames [][]byte
			for _, n := range []int{6000, 8000, 10000, 12000} {
				frame, err := ent.Encode(ent.Example(n))
				if err != nil {
					b.Fatal(err)
				}
				frames = append(frames, frame)
			}
			dst := ent.Example(16000)
			step := func(i int) {
				sc := ent.GetScratch()
				if err := ent.DecodeInto(sc, frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
				if err := ent.Merge(dst, sc); err != nil {
					b.Fatal(err)
				}
				ent.PutScratch(sc)
			}
			for i := 0; i < 2*len(frames); i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}
