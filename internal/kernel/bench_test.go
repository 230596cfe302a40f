package kernel

import (
	"math"
	"testing"

	"repro/internal/gen"
)

// BenchmarkUpdate times one edge report's worth of Update calls: a
// fresh ε = 0.1 kernel (m = 126) over an 8192-point chunk.
//
//   - uniform, ring: the filter's common case (interior points) and the
//     noisy circle where far fewer points are interior;
//   - circle: radius grows with every point, so each is strictly
//     extreme and pays the scan — the filter's overhead in the worst
//     case, which must stay within 10 % of the scan alone;
//   - decoded: a kernel that arrives as a frame, then sees interior
//     points — the filter must engage without a slot-changing Update.
func BenchmarkUpdate(b *testing.B) {
	const chunk = 8192
	circle := make([]gen.Point, chunk)
	for i := range circle {
		r, phi := 1+float64(i)*1e-3, float64(i)*2.399963229728653 // golden angle
		circle[i] = gen.Point{X: r * math.Cos(phi), Y: r * math.Sin(phi)}
	}
	seen := NewEpsilon(0.1)
	for _, p := range gen.UniformPoints(chunk, 7) {
		seen.Update(p)
	}
	frame, err := seen.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		pts   []gen.Point
		start func() *Kernel
	}{
		{"uniform", gen.UniformPoints(chunk, 1), func() *Kernel { return NewEpsilon(0.1) }},
		{"ring", gen.RingPoints(chunk, 1, 0.05, 1), func() *Kernel { return NewEpsilon(0.1) }},
		{"circle", circle, func() *Kernel { return NewEpsilon(0.1) }},
		{"decoded", gen.UniformPoints(chunk, 1), func() *Kernel {
			k := new(Kernel)
			if err := k.UnmarshalBinary(frame); err != nil {
				b.Fatal(err)
			}
			return k
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := bc.start()
				for _, p := range bc.pts {
					k.Update(p)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/item")
		})
	}
}
