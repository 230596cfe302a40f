package sampling

import "math"

// UpdateBatch observes every value in vs. The resulting state is
// identical to calling Update(v) for each v in order; the loop is
// Update's body, so offer inlines into it.
func (s *BottomK) UpdateBatch(vs []float64) {
	for _, v := range vs {
		if math.IsNaN(v) {
			panic("sampling: NaN has no rank")
		}
		s.n++
		s.offer(tagged{tag: s.rng.Uint64(), v: v})
	}
}
