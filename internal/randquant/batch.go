package randquant

import "math"

// UpdateBatch inserts every value in vs. The resulting state is
// identical to calling Update(v) for each v in order: while every
// value is kept (ell == 0) the partial buffer fills in bulk copies and
// promotions trigger at exactly the same points; once a bounded
// summary samples, each value takes its acceptance draw in order. The
// same RNG draws are consumed either way. NaN values panic, as in
// Update, before anything is inserted.
func (s *Summary) UpdateBatch(vs []float64) {
	for _, v := range vs {
		if math.IsNaN(v) {
			panic("randquant: NaN has no rank")
		}
	}
	rs := lender.Get()
	defer lender.Put(rs)
	for len(vs) > 0 && s.lv.Ell == 0 {
		room := s.lv.S - len(s.lv.Partial.Keys)
		if room <= 0 {
			s.promotePartial(rs)
			continue
		}
		if room > len(vs) {
			room = len(vs)
		}
		s.lv.Partial.Keys = append(s.lv.Partial.Keys, vs[:room]...)
		s.lv.N += uint64(room)
		vs = vs[room:]
		if len(s.lv.Partial.Keys) >= s.lv.S {
			s.promotePartial(rs)
		}
	}
	s.lv.N += uint64(len(vs))
	s.thin(rs, vs, 0)
}
