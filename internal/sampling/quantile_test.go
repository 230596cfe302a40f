package sampling

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
)

// refQuantile is BottomK.Quantile as it shipped before the lent
// selection, with phi clamped to [0, 1] first (NaN to 1): the sample
// copied, sorted by sort.Float64s and indexed at ⌊phi·size⌋.
func refQuantile(s *BottomK, phi float64) float64 {
	vals := make([]float64, 0, len(s.keep))
	for _, t := range s.keep {
		vals = append(vals, t.v)
	}
	sort.Float64s(vals)
	if len(vals) == 0 {
		return math.NaN()
	}
	if math.IsNaN(phi) {
		phi = 1
	}
	if !(phi > 0) {
		phi = 0
	}
	return vals[min(int(min(phi, 1)*float64(len(vals))), len(vals)-1)]
}

// TestQuantileOutOfRangeClamps: phi past 1 (or NaN) answers the largest
// sampled value, as phi = 1 does, and phi below 0 the smallest. Before
// the clamp, int(+Inf·size) was out of int's range and the index fell
// to 0 on amd64: a k = 16 sample of 0…99 answered Quantile(+Inf) with
// its smallest value.
func TestQuantileOutOfRangeClamps(t *testing.T) {
	s := NewBottomK(16, 1)
	for v := range 100 {
		s.Update(float64(v))
	}
	vals := s.Values()
	lo, hi := vals[0], vals[len(vals)-1]
	for _, phi := range []float64{1, 2, 1e300, math.Inf(1), math.NaN()} {
		if got := s.Quantile(phi); got != hi {
			t.Errorf("Quantile(%v) = %v, want the largest value %v", phi, got, hi)
		}
	}
	for _, phi := range []float64{0, -1, -1e300, math.Inf(-1)} {
		if got := s.Quantile(phi); got != lo {
			t.Errorf("Quantile(%v) = %v, want the smallest value %v", phi, got, lo)
		}
	}
}

// TestQuantileMatchesSort holds the selection to the sorted sample at
// every index a phi can reach and at out-of-range phis, on samples of
// distinct values, of many ties (±0 and ±Inf among them, which answer
// ==), a partly filled sample and a merged one.
func TestQuantileMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []float64{math.Inf(-1), -1, negZero, 0, 2, math.Inf(1)}
	rng := gen.NewRNG(3)
	ties := NewBottomK(64, 4)
	for range 5000 {
		ties.Update(pool[rng.Uint64()%uint64(len(pool))])
	}
	distinct := NewBottomK(256, 5)
	for _, v := range gen.LogNormalValues(20000, 0, 1, 5) {
		distinct.Update(v)
	}
	partial := NewBottomK(256, 6)
	for _, v := range gen.UniformValues(37, 6) {
		partial.Update(v)
	}
	merged := NewBottomK(256, 7)
	for range 5000 {
		merged.Update(pool[rng.Uint64()%uint64(len(pool))])
	}
	if err := merged.Merge(distinct); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*BottomK{"empty": NewBottomK(8, 1), "ties": ties, "distinct": distinct, "partial": partial, "merged": merged} {
		phis := []float64{math.NaN(), math.Inf(-1), -1, 0, 1e-9, 0.25, 0.5, 0.999, 1, 2, 1e300, math.Inf(1)}
		for i := range s.Size() + 1 {
			phis = append(phis, float64(i)/float64(s.Size()))
		}
		for _, phi := range phis {
			got, want := s.Quantile(phi), refQuantile(s, phi)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: Quantile(%v) = %v, the sorted sample %v", name, phi, got, want)
			}
		}
	}
}

// TestQuantileAllocatesNothing: once the lender holds a copy of the
// sample, a query allocates nothing.
func TestQuantileAllocatesNothing(t *testing.T) {
	s := NewBottomK(256, 1)
	for _, v := range gen.UniformValues(10000, 1) {
		s.Update(v)
	}
	_ = s.Quantile(0.5)
	if a := testing.AllocsPerRun(100, func() { _ = s.Quantile(0.5) }); a != 0 {
		t.Errorf("Quantile: %v allocs", a)
	}
}

// BenchmarkQuantile is a median query on a full k = 256 sample.
func BenchmarkQuantile(b *testing.B) {
	s := NewBottomK(256, 1)
	for _, v := range gen.LogNormalValues(100000, 0, 1, 1) {
		s.Update(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_ = s.Quantile(0.5)
	}
}
