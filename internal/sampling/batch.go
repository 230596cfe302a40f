package sampling

import "math"

// UpdateBatch observes every value in vs. The resulting state is
// identical to calling Update(v) for each v in order (the same tag
// draws are consumed in the same order, and the concrete sift helpers
// replay container/heap's moves exactly).
func (s *BottomK) UpdateBatch(vs []float64) {
	for _, v := range vs {
		if math.IsNaN(v) {
			panic("sampling: NaN has no rank")
		}
		s.n++
		t := tagged{tag: s.rng.Uint64(), v: v}
		if len(s.keep) < s.k {
			s.keep.pushConcrete(t)
			continue
		}
		if t.tag < s.keep[0].tag {
			s.keep[0] = t
			s.keep.fixRoot()
		}
	}
}
