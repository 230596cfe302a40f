package randquant

import "math"

// UpdateBatch inserts every value in vs. The resulting state is
// identical to calling Update(v) for each v in order: while every
// value is kept (ell == 0) the partial buffer fills in bulk copies and
// promotions trigger at exactly the same points; once a bounded
// summary samples, each value takes its acceptance draw in order. The
// same RNG draws are consumed either way. NaN values panic, as in
// Update, before anything is inserted.
//
//sketch:hotpath
func (s *Summary) UpdateBatch(vs []float64) {
	for _, v := range vs {
		if math.IsNaN(v) {
			panic("randquant: NaN has no rank")
		}
	}
	for len(vs) > 0 && s.ell == 0 {
		room := s.s - len(s.partial)
		if room <= 0 {
			s.promotePartial()
			continue
		}
		if room > len(vs) {
			room = len(vs)
		}
		s.partial = append(s.partial, vs[:room]...)
		s.n += uint64(room)
		vs = vs[room:]
		if len(s.partial) >= s.s {
			s.promotePartial()
		}
	}
	s.n += uint64(len(vs))
	s.thin(vs, 0)
}
