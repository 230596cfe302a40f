package distinct

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// refEstimate is HLL.Estimate as it shipped before the 2^−r table: one
// division per register, kept as the differential oracle.
func refEstimate(s *HLL) float64 {
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// TestEstimateMatchesDivision holds the table-driven Estimate to the
// per-register division bit for bit, at every precision: registers all
// 0, all at maxRho(p), the two mixed, random registers within the law,
// and streamed summaries on either side of the linear-counting switch.
func TestEstimateMatchesDivision(t *testing.T) {
	rng := gen.NewRNG(1)
	for p := uint8(4); p <= 18; p++ {
		top := maxRho(p)
		fills := map[string]func(i int) uint8{
			"zeros":  func(int) uint8 { return 0 },
			"top":    func(int) uint8 { return top },
			"mixed":  func(i int) uint8 { return top * uint8(i&1) },
			"random": func(int) uint8 { return uint8(rng.Uint64() % uint64(top+1)) },
		}
		for name, fill := range fills {
			s := NewHLL(p, 9)
			for i := range s.regs {
				s.regs[i] = fill(i)
			}
			if got, want := s.Estimate(), refEstimate(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("p=%d %s: Estimate %v, the division %v", p, name, got, want)
			}
		}
		s := NewHLL(p, 9)
		for i, n := 0, 1; n <= 1<<20; n *= 4 {
			for ; i < n; i++ {
				s.Update(core.Item(i))
			}
			if got, want := s.Estimate(), refEstimate(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("p=%d after %d items: Estimate %v, the division %v", p, n, got, want)
			}
		}
	}
}

// TestEstimateAllocatesNothing: Estimate reads the registers and a
// table, nothing else.
func TestEstimateAllocatesNothing(t *testing.T) {
	s := NewHLL(12, 1)
	for i := range core.Item(10000) {
		s.Update(i)
	}
	if a := testing.AllocsPerRun(100, func() { _ = s.Estimate() }); a != 0 {
		t.Errorf("Estimate: %v allocs", a)
	}
}
