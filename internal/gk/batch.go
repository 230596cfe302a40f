package gk

import "math"

// UpdateBatch inserts every value in vs. The resulting state is
// identical to calling Update(v) for each v in order: values fill the
// pending-insert buffer in bulk copies and flushes trigger at exactly
// the same points, so the amortized sorted-sweep insertion sees the
// same batches. NaN values panic, as in Update.
func (s *Summary) UpdateBatch(vs []float64) {
	for _, v := range vs {
		if math.IsNaN(v) {
			panic("gk: NaN has no rank")
		}
	}
	rs := lender.Get()
	defer lender.Put(rs)
	for len(vs) > 0 {
		room := s.bufCap - len(s.buf)
		if room <= 0 {
			s.sweep(rs)
			continue
		}
		if room > len(vs) {
			room = len(vs)
		}
		s.buf = append(s.buf, vs[:room]...)
		s.n += uint64(room)
		vs = vs[room:]
		if len(s.buf) >= s.bufCap {
			s.sweep(rs)
		}
	}
}
